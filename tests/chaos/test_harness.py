"""Chaos harness: report plumbing, tail surgery, one real battery."""

import json

import pytest

from repro.chaos.harness import (
    ChaosReport,
    ChaosRunResult,
    _check_archive,
    _tear_journal_tail,
    _workload_params,
    run_chaos_battery,
)
from repro.chaos.spec import ChaosPlan, TornJournalTail, mixed_plans


class TestReport:
    def _result(self, index=0, violations=()):
        return ChaosRunResult(
            index=index,
            seed=7,
            plan="kill_server",
            violations=list(violations),
            acknowledged=4,
            duration=1.5,
        )

    def test_ok_iff_no_violations(self):
        report = ChaosReport(seed=7, results=[self._result()])
        assert report.ok
        report.results.append(
            self._result(index=1, violations=["job lost"])
        )
        assert not report.ok
        assert len(report.failures) == 1

    def test_to_dict_is_json_safe(self):
        report = ChaosReport(seed=7, results=[self._result()])
        wire = json.loads(json.dumps(report.to_dict()))
        assert wire["format"] == "ats-chaos-report"
        assert wire["ok"] is True
        assert wire["results"][0]["acknowledged"] == 4

    def test_format_lists_violations(self):
        report = ChaosReport(
            seed=7,
            results=[self._result(violations=["acked job vanished"])],
        )
        text = report.format()
        assert "1 FAILED" in text
        assert "violation: acked job vanished" in text

    def test_format_all_ok(self):
        report = ChaosReport(seed=7, results=[self._result()])
        assert "ALL INVARIANTS HELD" in report.format()


class TestWorkload:
    def test_derived_from_plan_seed(self):
        a = _workload_params(ChaosPlan(seed=4))
        b = _workload_params(ChaosPlan(seed=4))
        c = _workload_params(ChaosPlan(seed=5))
        assert a == b
        assert a != c


class TestTornTail:
    def _journal(self, tmp_path, records=3):
        state = tmp_path / "state"
        state.mkdir()
        lines = ['{"format": "ats-service-journal", "version": 1}']
        lines += [
            json.dumps({"key": f"job-{i}", "payload": {}})
            for i in range(records)
        ]
        (state / "jobs.jsonl").write_text("\n".join(lines) + "\n")
        return state

    def test_cuts_requested_bytes(self, tmp_path):
        state = self._journal(tmp_path)
        before = (state / "jobs.jsonl").read_bytes()
        note = _tear_journal_tail(state, TornJournalTail(drop_bytes=7))
        after = (state / "jobs.jsonl").read_bytes()
        assert note == "tore 7 byte(s) off the journal tail"
        assert after == before[:-7]

    def test_never_cuts_into_header(self, tmp_path):
        state = self._journal(tmp_path, records=1)
        before = (state / "jobs.jsonl").read_bytes()
        header = before[: before.find(b"\n") + 1]
        _tear_journal_tail(state, TornJournalTail(drop_bytes=10_000))
        after = (state / "jobs.jsonl").read_bytes()
        assert after == header

    def test_missing_journal_is_a_note_not_a_crash(self, tmp_path):
        state = tmp_path / "state"
        state.mkdir()
        note = _tear_journal_tail(state, TornJournalTail())
        assert "skipped" in note


class TestArchiveCheck:
    """The scrub re-analyzes every run: a torn cell file is a miss, a
    wrong cell is a violation."""

    def _archive(self, tmp_path):
        from repro.archive import Archive
        from repro.core import get_property

        archive = Archive(tmp_path / "archive")
        run = archive.archive_run(
            get_property("late_sender"), size=4, seed=3
        )
        archive.analyze(run)
        archive.store.close()
        return archive.store._cells_path(run.trace_digest)

    def _check(self, tmp_path):
        result = ChaosRunResult(index=0, seed=0, plan="-")
        _check_archive(tmp_path / "archive", result)
        return result

    def test_torn_cell_file_is_no_violation(self, tmp_path):
        cells = self._archive(tmp_path)
        cells.write_bytes(cells.read_bytes()[:50])
        result = self._check(tmp_path)
        assert result.violations == []
        assert "1 blob(s)" in result.notes[0]

    def test_wrong_cached_findings_are_a_violation(self, tmp_path):
        cells = self._archive(tmp_path)
        payload = json.loads(cells.read_bytes())
        for key in payload:
            if key.startswith("findings|"):
                payload[key] = []
        cells.write_text(json.dumps(payload))
        result = self._check(tmp_path)
        assert len(result.violations) == 1
        assert "archive cache wrong" in result.violations[0]


class TestBattery:
    def test_kill_and_recover_end_to_end(self, tmp_path):
        # runs=1 picks family 0 of the mixed battery: a pure SIGKILL
        # mid-workload followed by --recover, the canonical crash
        plans = mixed_plans(3, 1)
        assert [f.kind for f in plans[0].faults] == ["kill_server"]
        report = run_chaos_battery(
            seed=3, runs=1, workdir=tmp_path / "chaos", timeout=120,
            keep=True,
        )
        assert len(report.results) == 1
        result = report.results[0]
        assert result.violations == []
        assert result.acknowledged >= 4
        # the kept workdir carries the JSON report for CI upload
        saved = tmp_path / "chaos" / "chaos-report.json"
        assert saved.exists()
        assert json.loads(saved.read_text())["ok"] is True
