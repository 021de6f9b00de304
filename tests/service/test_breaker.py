"""Circuit breaker state machine, driven by a fake clock."""

import pytest

from repro.service.breaker import BreakerOpen, CircuitBreaker


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def breaker(clock):
    return CircuitBreaker(threshold=3, cooldown=10.0, clock=clock)


class TestClosed:
    def test_unknown_cell_admits(self, breaker):
        breaker.check("cell-a")  # no raise

    def test_failures_below_threshold_admit(self, breaker):
        breaker.record_failure("a")
        breaker.record_failure("a")
        breaker.check("a")

    def test_success_resets_failure_count(self, breaker):
        breaker.record_failure("a")
        breaker.record_failure("a")
        breaker.record_success("a")
        breaker.record_failure("a")
        breaker.record_failure("a")
        breaker.check("a")  # still closed: count restarted


class TestOpen:
    def test_threshold_opens(self, breaker):
        for _ in range(3):
            breaker.record_failure("a")
        with pytest.raises(BreakerOpen) as exc:
            breaker.check("a")
        assert exc.value.key == "a"
        assert exc.value.retry_after == pytest.approx(10.0)

    def test_other_cells_unaffected(self, breaker):
        for _ in range(3):
            breaker.record_failure("a")
        breaker.check("b")

    def test_retry_after_counts_down(self, breaker, clock):
        for _ in range(3):
            breaker.record_failure("a")
        clock.advance(4.0)
        with pytest.raises(BreakerOpen) as exc:
            breaker.check("a")
        assert exc.value.retry_after == pytest.approx(6.0)


class TestHalfOpen:
    def _open(self, breaker):
        for _ in range(3):
            breaker.record_failure("a")

    def test_cooldown_admits_one_probe(self, breaker, clock):
        self._open(breaker)
        clock.advance(10.0)
        breaker.check("a")  # the probe
        with pytest.raises(BreakerOpen):
            breaker.check("a")  # concurrent submissions stay out

    def test_probe_success_closes(self, breaker, clock):
        self._open(breaker)
        clock.advance(10.0)
        breaker.check("a")
        breaker.record_success("a")
        breaker.check("a")
        assert breaker.open_count() == 0

    def test_probe_failure_reopens(self, breaker, clock):
        self._open(breaker)
        clock.advance(10.0)
        breaker.check("a")
        breaker.record_failure("a")
        with pytest.raises(BreakerOpen):
            breaker.check("a")
        # and a fresh cooldown applies
        clock.advance(10.0)
        breaker.check("a")


class TestObservability:
    def test_transitions_observed(self, clock):
        seen = []
        breaker = CircuitBreaker(
            threshold=1, cooldown=5.0, clock=clock,
            on_transition=lambda key, state: seen.append((key, state)),
        )
        breaker.record_failure("a")
        clock.advance(5.0)
        breaker.check("a")
        breaker.record_success("a")
        assert seen == [
            ("a", "open"), ("a", "half-open"), ("a", "closed"),
        ]

    def test_snapshot_lists_evicted_cells(self, breaker, clock):
        for _ in range(3):
            breaker.record_failure("a")
        clock.advance(3.0)
        snap = breaker.snapshot()
        assert len(snap) == 1
        assert snap[0]["cell"] == "a"
        assert snap[0]["state"] == "open"
        assert snap[0]["retry_after"] == pytest.approx(7.0)

    def test_validation(self, clock):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown=0.0)


class TestServiceIntegration:
    def test_crashing_cell_evicted_and_503(self, tmp_path):
        from repro.archive import Archive
        from repro.service.server import AnalysisService

        service = AnalysisService(
            Archive(tmp_path / "archive"),
            max_workers=2,
            breaker_threshold=2,
            breaker_cooldown=60.0,
        )

        def crash(job):
            raise RuntimeError("injected cell crash")

        service._job_history = crash
        # identical submissions crash the same cell twice
        for _ in range(2):
            job, _ = service.submit("history", {})
            assert job.wait(30)
            assert job.state == "failed"
            assert "injected cell crash" in job.error
        with pytest.raises(BreakerOpen):
            service.submit("history", {})
        assert service.counts["evicted"] == 1
        assert service.status()["breakers"][0]["state"] == "open"
        assert service.status()["breakers"][0]["cell"] == "history"
        # a different cell still flows
        job, _ = service.submit(
            "run",
            {"property": "balanced_omp_loop", "size": 4,
             "threads": 2},
        )
        assert job.wait(60)
        assert job.state == "done"
        service.close()

    def test_malformed_submissions_never_trip_a_cell(self, tmp_path):
        from repro.archive import Archive
        from repro.core import get_property
        from repro.service.server import AnalysisService, JobError

        archive = Archive(tmp_path / "archive")
        run = archive.archive_run(
            get_property("late_sender"), size=4, num_threads=2, seed=1
        )
        service = AnalysisService(archive, max_workers=2)
        for _ in range(3):
            try:
                bad, _ = service.submit(
                    "analyze", {"run": run.run_id, "threshold": "x"},
                    tenant="mallory",
                )
            except JobError:
                continue
            assert bad.wait(30)
        # another tenant's valid analyze of that run still computes
        job, _ = service.submit(
            "analyze", {"run": run.run_id}, tenant="alice"
        )
        assert job.wait(30)
        assert job.state == "done"
        assert service.status()["breakers"] == []
        service.close()
