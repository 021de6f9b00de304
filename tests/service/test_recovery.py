"""Restart recovery: restore, requeue, resume, orphan.

These tests drive :class:`AnalysisService` in-process through the
same journal a crashed ``ats serve --state-dir`` leaves behind; the
subprocess version of the same contract lives in the chaos harness
tests.
"""

import json
import time

import pytest

from repro.archive import Archive
from repro.service.journal import ServiceJournal
from repro.service.server import AnalysisService

PROP = "balanced_omp_loop"


def _service(tmp_path, recover=False, **kw):
    return AnalysisService(
        Archive(tmp_path / "archive", fsync=True),
        max_workers=2,
        state_dir=tmp_path / "state",
        recover=recover,
        **kw,
    )


def _run_params(seed=1):
    return {"property": PROP, "size": 6, "threads": 2, "seed": seed}


def _settle(service):
    """Wait for the terminal journal write after resolve()."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        with service._lock:
            if not service._queue and not service._inflight:
                break
        time.sleep(0.02)
    time.sleep(0.1)
    service.flush_durable()


class TestRestore:
    def test_finished_job_answers_after_restart(self, tmp_path):
        service = _service(tmp_path)
        job, _ = service.submit("run", _run_params())
        assert job.wait(60)
        _settle(service)
        result = job.result
        del service

        restarted = _service(tmp_path, recover=True)
        recovered = restarted.get_job(job.id)
        assert recovered is not None
        assert recovered.state == "done"
        assert recovered.recovered is True
        assert recovered.result == result
        assert restarted.counts["recovered"] == 1
        restarted.close()

    def test_served_job_journals_accept_and_terminal_only(
        self, tmp_path
    ):
        service = _service(tmp_path)
        job, _ = service.submit("history", {})
        assert job.wait(30)
        _settle(service)
        service.close()
        lines = (tmp_path / "state" / "jobs.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines[1:]]  # past header
        assert [(r["key"], r["payload"]["state"]) for r in records] == [
            (job.id, "queued"),
            (job.id, "done"),
        ]

    def test_recovered_flag_in_job_dict(self, tmp_path):
        service = _service(tmp_path)
        job, _ = service.submit("history", {})
        assert job.wait(30)
        _settle(service)
        del service
        restarted = _service(tmp_path, recover=True)
        assert restarted.get_job(job.id).to_dict()["recovered"] is True
        restarted.close()

    def test_new_ids_sort_after_recovered_ids(self, tmp_path):
        service = _service(tmp_path)
        job, _ = service.submit("history", {})
        assert job.wait(30)
        _settle(service)
        del service
        restarted = _service(tmp_path, recover=True)
        fresh, _ = restarted.submit("history", {})
        assert fresh.id > job.id
        assert fresh.wait(30)
        restarted.close()


class TestRequeue:
    def _plant(self, tmp_path, job_id, state, params=None, kind="run"):
        """Write an interrupted job record as a crash would leave it."""

        class Planted:
            pass

        planted = Planted()
        planted.id = job_id
        planted.kind = kind
        planted.params = dict(params or _run_params(seed=9))
        planted.tenant = "default"
        planted.request_id = "req-planted"
        planted.state = state
        planted.error = None
        planted.result = None
        state_dir = tmp_path / "state"
        state_dir.mkdir(parents=True, exist_ok=True)
        journal = ServiceJournal(state_dir / "jobs.jsonl")
        journal.record_state(planted)
        journal.close()

    @pytest.mark.parametrize("state", ["queued", "running"])
    def test_interrupted_job_reruns(self, tmp_path, state):
        self._plant(tmp_path, "job-000500", state)
        service = _service(tmp_path, recover=True)
        job = service.get_job("job-000500")
        assert job is not None
        assert job.recovered is True
        assert job.wait(60)
        assert job.state == "done"
        assert service.counts["requeued"] == 1
        service.close()

    def test_rerun_result_matches_uninterrupted_run(self, tmp_path):
        # the oracle: the same submission against a fresh service
        baseline = AnalysisService(
            Archive(tmp_path / "oracle-archive")
        )
        oracle, _ = baseline.submit("run", _run_params(seed=9))
        assert oracle.wait(60)
        baseline.close()

        self._plant(tmp_path, "job-000500", "running")
        service = _service(tmp_path, recover=True)
        job = service.get_job("job-000500")
        assert job.wait(60)
        assert job.result == oracle.result
        service.close()


class TestOrphan:
    def test_unresolvable_spec_becomes_orphaned(self, tmp_path):
        TestRequeue()._plant(
            tmp_path, "job-000600", "queued",
            params={"property": "gone-forever"},
        )
        service = _service(tmp_path, recover=True)
        job = service.get_job("job-000600")
        assert job is not None
        assert job.state == "orphaned"
        assert "unrecoverable after restart" in job.error
        assert service.counts["orphaned"] == 1
        service.close()

    def test_orphan_state_survives_second_restart(self, tmp_path):
        TestRequeue()._plant(
            tmp_path, "job-000600", "queued",
            params={"property": "gone-forever"},
        )
        service = _service(tmp_path, recover=True)
        service.close()
        again = _service(tmp_path, recover=True)
        assert again.get_job("job-000600").state == "orphaned"
        again.close()


class TestCampaignResume:
    def test_campaign_checkpoint_keyed_by_job_id(self, tmp_path):
        service = _service(tmp_path)
        job, _ = service.submit(
            "campaign",
            {"properties": [PROP], "size": 6, "threads": 2},
        )
        assert job.wait(120)
        assert job.state == "done"
        _settle(service)
        checkpoint = (
            tmp_path / "state" / "checkpoints" / f"{job.id}.jsonl"
        )
        assert checkpoint.exists()
        del service

    def test_interrupted_campaign_resumes_identically(self, tmp_path):
        baseline = AnalysisService(
            Archive(tmp_path / "oracle-archive")
        )
        oracle, _ = baseline.submit(
            "campaign",
            {"properties": [PROP, "early_gather"], "size": 6,
             "threads": 2, "seed": 3},
        )
        assert oracle.wait(120)
        expected = dict(oracle.result)
        expected.pop("progress")
        baseline.close()

        # plant an interrupted campaign record as a crash leaves it
        TestRequeue()._plant(
            tmp_path, "job-000700", "running", kind="campaign",
            params={
                "properties": [PROP, "early_gather"], "size": 6,
                "threads": 2, "seed": 3,
            },
        )
        service = _service(tmp_path, recover=True)
        job = service.get_job("job-000700")
        assert job.wait(120)
        assert job.state == "done"
        got = dict(job.result)
        progress = got.pop("progress")
        assert got == expected
        assert progress["total"] == 2
        service.close()


class TestAcknowledgmentRollback:
    def test_journal_failure_rolls_submission_back(self, tmp_path):
        service = _service(tmp_path)

        def explode(job):
            raise OSError(28, "No space left on device")

        service.journal.record_state = explode
        with pytest.raises(OSError):
            service.submit("history", {})
        # nothing registered: queue, jobs table and key map are clean
        assert service.status()["queue_depth"] == 0
        assert service.status()["jobs_by_state"] == {}
        assert not service._active_keys
        service.close()
