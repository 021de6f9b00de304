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
