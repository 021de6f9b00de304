"""Job model and the service core: queueing, coalescing, drain."""

import threading

import pytest

from repro.archive import Archive
from repro.core import get_property
from repro.service import (
    AnalysisService,
    CampaignProgress,
    Job,
    JobError,
    RateLimited,
    ServiceDraining,
)


# ----------------------------------------------------------------------
# Job
# ----------------------------------------------------------------------

def test_job_lifecycle_and_serialization():
    job = Job("analyze", {"run": "abc"}, tenant="t", request_id="r-1")
    assert job.state == "queued"
    assert not job.done
    job.mark_running()
    job.resolve({"answer": 42}, None)
    assert job.done and job.state == "done"
    out = job.to_dict()
    assert out["result"] == {"answer": 42}
    assert out["request_id"] == "r-1"
    assert out["queue_wait"] >= 0.0


def test_job_failure_carries_error():
    job = Job("run", {})
    job.mark_running()
    job.resolve(None, "ValueError: boom")
    assert job.state == "failed"
    assert job.to_dict()["error"] == "ValueError: boom"


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        Job("frobnicate", {})


def test_done_callback_fires_even_when_registered_late():
    job = Job("history", {})
    job.resolve({"n": 0}, None)
    seen = []
    job.add_done_callback(seen.append)
    assert seen == [job]


def test_campaign_progress_counts_events():
    progress = CampaignProgress("job-x", total=3)
    progress.on_event({"event": "cell-started", "key": "a",
                       "attempt": 1, "ts": 1.0})
    progress.on_event({"event": "cell-retry", "key": "a",
                       "attempt": 1, "ts": 2.0})
    progress.on_event({"event": "cell-started", "key": "a",
                       "attempt": 2, "ts": 3.0})
    progress.on_event({"event": "cell-done", "key": "a", "ts": 4.0})
    progress.on_event({"event": "cell-quarantined", "key": "b",
                       "ts": 5.0})
    snap = progress.snapshot()
    assert snap["started"] == 1  # first attempts only
    assert snap["retried"] == 1
    assert snap["done"] == 1
    assert snap["failed"] == 1
    assert snap["recent"][-1]["key"] == "b"


# ----------------------------------------------------------------------
# service core (no HTTP)
# ----------------------------------------------------------------------

@pytest.fixture
def service(tmp_path):
    archive = Archive(tmp_path / "archive")
    run = archive.archive_run(
        get_property("late_sender"), size=4, num_threads=2, seed=1
    )
    # a burst above the default lets 1000 identical submits through
    svc = AnalysisService(archive, max_workers=1, burst=4096)
    svc.seeded_run = run
    return svc


def test_submit_executes_and_resolves(service):
    job, coalesced = service.submit(
        "analyze", {"run": service.seeded_run.run_id}
    )
    assert not coalesced
    assert job.wait(timeout=30)
    assert job.state == "done"
    assert "late_sender" in job.result["detected"]


def test_unknown_run_rejected_at_submit(service):
    with pytest.raises(JobError):
        service.submit("analyze", {"run": "doesnotexist"})


def test_unknown_property_rejected_at_submit(service):
    with pytest.raises(JobError):
        service.submit("run", {"property": "nope"})


@pytest.mark.parametrize("n", [6, 1000])
def test_concurrent_identical_analyzes_coalesce(service, n):
    """N identical in-flight analyzes -> one executor cell."""
    gate = threading.Event()
    # occupy the single worker so submissions pile up deterministically
    service._job_history = lambda job: gate.wait(30) or {"count": 0}
    blocker, _ = service.submit("history", {})

    ref = service.seeded_run.run_id
    jobs = [service.submit("analyze", {"run": ref}) for _ in range(n)]
    primaries = {job.id for job, _ in jobs}
    assert len(primaries) == 1, "identical submissions made new jobs"
    assert [c for _, c in jobs] == [False] + [True] * (n - 1)
    primary = jobs[0][0]
    assert primary.coalesced == n - 1

    executed_before = service.counts["executed"]
    gate.set()
    assert blocker.wait(30) and primary.wait(30)
    # exactly two computations ran: the blocker and ONE analyze
    assert service.counts["executed"] == executed_before + 2
    assert service.counts["coalesced"] == n - 1
    # every waiter reads the same result object
    assert primary.result["detected"]


def _hold_worker(service):
    """Occupy the single worker; returns the gate that frees it."""
    gate = threading.Event()
    service._job_history = lambda job: gate.wait(30) or {"count": 0}
    service.submit("history", {})
    return gate


def test_threshold_is_part_of_the_analyze_identity(service):
    run = service.seeded_run
    gate = _hold_worker(service)
    default, _ = service.submit("analyze", {"run": run.run_id})
    strict, coalesced = service.submit(
        "analyze", {"run": run.run_id, "threshold": 0.9}
    )
    gate.set()
    assert not coalesced and strict.id != default.id
    assert default.wait(30) and strict.wait(30)
    assert "late_sender" in default.result["detected"]
    expected = list(service.archive.analyze(run).detected(0.9))
    assert strict.result["detected"] == expected


def test_severity_scale_is_part_of_the_run_identity(service, tmp_path):
    base = {"property": "late_sender", "size": 4, "threads": 2, "seed": 3}
    gate = _hold_worker(service)
    jobs = [
        service.submit("run", dict(base, severity_scale=scale))
        for scale in (1.0, 2.0)
    ]
    gate.set()
    assert [coalesced for _, coalesced in jobs] == [False, False]
    fresh = Archive(tmp_path / "fresh")
    for (job, _), scale in zip(jobs, (1.0, 2.0)):
        assert job.wait(60) and job.state == "done", job.error
        expected = fresh.archive_run(
            get_property("late_sender"), size=4, num_threads=2, seed=3,
            severity_scale=scale,
        )
        assert job.result["run_id"] == expected.run_id


def test_prefixes_of_one_run_coalesce_onto_its_full_id(service):
    run_id = service.seeded_run.run_id
    gate = _hold_worker(service)
    first, _ = service.submit("analyze", {"run": run_id[:6]})
    second, coalesced = service.submit("analyze", {"run": run_id[:9]})
    gate.set()
    assert coalesced and second is first
    assert first.wait(30)
    assert first.result["run_id"] == run_id


_RUN = "<seeded run>"
#: valid params of each kind, to which each case adds one bad value
_VALID = {
    "run": {"property": "late_sender"},
    "analyze": {"run": _RUN},
    "diff": {"before": _RUN, "after": _RUN},
    "campaign": {},
    "synth": {"spec": {"name": "svc-camp", "scenarios": 2}},
    "export": {},
}


@pytest.mark.parametrize("kind,key,value", [
    ("run", "size", "x"),
    ("run", "size", 0),
    ("run", "size", True),
    ("run", "size", 1),  # under late_sender's min_size
    ("run", "threads", 0),
    ("run", "threads", "two"),
    ("run", "seed", "x"),
    ("run", "seed", False),
    ("run", "severity_scale", 0),
    ("run", "severity_scale", "inf"),
    ("run", "severity_scale", "nan"),
    ("analyze", "threshold", "x"),
    ("analyze", "threshold", -0.5),
    ("analyze", "threshold", "inf"),
    ("analyze", "threshold", True),
    ("diff", "threshold", "x"),
    ("campaign", "size", "x"),
    ("campaign", "threads", -1),
    ("campaign", "timeout", 0),
    ("campaign", "retries", -1),
    ("campaign", "retries", "x"),
    ("campaign", "properties", "late_sender"),
    ("synth", "threshold", "x"),
    ("synth", "timeout", -1),
    ("synth", "retries", [1]),
    ("export", "runs", _RUN),
])
def test_malformed_params_rejected_before_the_journal(
    tmp_path, kind, key, value
):
    archive = Archive(tmp_path / "archive")
    run = archive.archive_run(
        get_property("late_sender"), size=4, num_threads=2, seed=1
    )
    svc = AnalysisService(archive, state_dir=tmp_path / "state")
    params = dict(_VALID[kind], **{key: value})
    params = {k: run.run_id if v == _RUN else v for k, v in params.items()}
    with pytest.raises(JobError, match=key):
        svc.submit(kind, params)
    assert svc.counts["submitted"] == 0
    assert svc.journal.load() == {}
    assert svc.breaker.snapshot() == []
    svc.close()


def test_recovery_orphans_a_spec_that_no_longer_parses(tmp_path):
    from types import SimpleNamespace

    from repro.service.journal import ServiceJournal

    state = tmp_path / "state"
    state.mkdir()
    with ServiceJournal(state / "jobs.jsonl") as journal:
        journal.record_state(SimpleNamespace(
            id="job-000900", kind="run", tenant="default",
            params={"property": "late_sender", "size": "x"},
            request_id="req-planted", state="queued",
            error=None, result=None,
        ))
    svc = AnalysisService(
        Archive(tmp_path / "archive"), state_dir=state, recover=True
    )
    job = svc.get_job("job-000900")
    assert job.state == "orphaned"
    assert "'size'" in job.error
    assert svc.counts["orphaned"] == 1
    svc.close()


def test_coalescing_does_not_join_resolved_jobs(service):
    ref = service.seeded_run.run_id
    first, _ = service.submit("analyze", {"run": ref})
    assert first.wait(30)
    second, coalesced = service.submit("analyze", {"run": ref})
    assert not coalesced
    assert second.id != first.id
    assert second.wait(30)


def test_unfinished_head_job_does_not_stop_eviction(tmp_path):
    """Finished jobs behind a long-running one are still evicted."""
    svc = AnalysisService(Archive(tmp_path / "archive"), max_workers=2)
    svc.MAX_FINISHED_JOBS = 50
    gate = threading.Event()
    svc._job_history = lambda job: gate.wait(30) or {"count": 0}
    held, _ = svc.submit("history", {})
    try:
        for seed in range(300):
            job, _ = svc.submit(
                "run", {"property": "late_sender", "size": 2, "seed": seed}
            )
            assert job.wait(30) and job.state == "done", job.error
        assert len(svc._jobs) == 50
        assert svc.get_job(held.id) is held
    finally:
        gate.set()
    assert held.wait(30)


def test_rate_limited_submission_raises(tmp_path):
    archive = Archive(tmp_path / "a2")
    svc = AnalysisService(archive, max_workers=1, rate=1.0, burst=1)
    svc.submit("history", {})
    with pytest.raises(RateLimited) as excinfo:
        svc.submit("history", {})
    assert excinfo.value.retry_after > 0.0
    assert svc.counts["rate_limited"] == 1


def test_drain_stops_intake_and_waits(service):
    job, _ = service.submit("analyze", {"run": service.seeded_run.run_id})
    assert service.drain(timeout=30)
    assert job.done
    assert not service.accepting
    with pytest.raises(ServiceDraining):
        service.submit("history", {})


def test_status_snapshot_shape(service):
    job, _ = service.submit("analyze", {"run": service.seeded_run.run_id})
    job.wait(30)
    status = service.status()
    assert status["queue_depth"] == 0
    assert status["counts"]["submitted"] == 1
    assert status["counts"]["done"] == 1
    assert 0.0 <= (status["cache_hit_ratio"] or 0.0) <= 1.0
    assert status["jobs_by_state"]["done"] == 1
