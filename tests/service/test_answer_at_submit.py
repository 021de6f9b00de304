"""Cache-hit analyzes answered at submit: one record, the same answer.

An analyze whose cells are all stored resolves inside
``AnalysisService.submit``, on the submitting thread, with one journal
record carrying both acceptance and result.  Any miss takes the queued
path.  These tests hold the two paths to the same results, counts,
metrics and recovery.
"""

import json
import threading
import time
import urllib.request

import pytest

from repro.analysis import DEFAULT_DETECTORS
from repro.archive import Archive
from repro.core import get_property
from repro.obs import (
    reset_metrics,
    set_metrics_enabled,
    set_spans_enabled,
    span_log,
    to_json,
)
from repro.service import (
    AnalysisService,
    ServiceClient,
    run_service_in_thread,
)

CELLS = len(DEFAULT_DETECTORS) + 1  # one per detector plus the meta cell
WARM = {"hits": CELLS, "misses": 0}
COLD = {"hits": 0, "misses": CELLS}


def _service(tmp_path, recover=False, max_workers=2):
    return AnalysisService(
        Archive(tmp_path / "archive", fsync=True),
        max_workers=max_workers,
        state_dir=tmp_path / "state",
        recover=recover,
    )


def _archive_run(service, seed=1):
    return service.archive.archive_run(
        get_property("late_sender"), size=4, num_threads=2, seed=seed
    )


def _records(tmp_path, count):
    """The journal's records past its header, once ``count`` are in.

    A queued job's terminal record is written just after it resolves,
    so a reader that has seen the job finish polls for it.
    """
    path = tmp_path / "state" / "jobs.jsonl"
    deadline = time.monotonic() + 10
    while True:
        lines = path.read_text().splitlines()[1:]
        if len(lines) >= count or time.monotonic() > deadline:
            return [
                (r["key"], r["payload"]["state"], r["payload"].get("result"))
                for r in map(json.loads, lines)
            ]
        time.sleep(0.01)


def _canonical(result):
    return json.dumps(result, sort_keys=True)


def test_warm_analyze_writes_one_record_and_cold_two(tmp_path):
    service = _service(tmp_path)
    run = _archive_run(service)
    cold, _ = service.submit("analyze", {"run": run.run_id})
    assert cold.wait(30) and cold.state == "done"
    assert _records(tmp_path, 2) == [
        (cold.id, "queued", None),
        (cold.id, "done", cold.result),
    ]

    warm, coalesced = service.submit("analyze", {"run": run.run_id})
    # answered before submit returned: no queue, no worker
    assert not coalesced
    assert warm.state == "done"
    assert warm.queue_wait() is None
    assert warm.result["cache"] == WARM
    assert cold.result["cache"] == COLD
    assert _records(tmp_path, 3)[2:] == [(warm.id, "done", warm.result)]
    service.close()
    assert len(_records(tmp_path, 3)) == 3


def test_warm_answer_needs_no_free_worker(tmp_path):
    service = _service(tmp_path, max_workers=1)
    run = _archive_run(service)
    cold, _ = service.submit("analyze", {"run": run.run_id})
    assert cold.wait(30)
    gate = threading.Event()

    def held(job):
        gate.wait(30)
        return {"count": 0}

    service._job_history = held
    blocker, _ = service.submit("history", {})
    try:
        warm, _ = service.submit("analyze", {"run": run.run_id})
        assert warm.state == "done"
        assert service.status()["queue_depth"] == 0
        assert not service._active_keys.get(warm.coalesce_key)
    finally:
        gate.set()
    assert blocker.wait(30)
    service.close()


@pytest.mark.parametrize("wait", [True, False])
def test_warm_http_analyze_writes_one_record(tmp_path, wait):
    service = _service(tmp_path)
    run = _archive_run(service)
    handle = run_service_in_thread(service)
    try:
        client = ServiceClient(handle.url)
        cold = client.analyze(run.run_id, wait=True)
        assert cold["result"]["cache"] == COLD
        assert len(_records(tmp_path, 2)) == 2
        answer = client.analyze(run.run_id, wait=wait)
        # the job is done before the reply, waited for or not
        assert answer["state"] == "done"
        job = service.get_job(answer["id"] if wait else answer["job"])
        assert job.state == "done"
        assert job.result["cache"] == WARM
        if wait:
            assert answer["result"] == job.result
        else:
            assert answer["coalesced"] is False
        assert _records(tmp_path, 3)[2:] == [(job.id, "done", job.result)]
    finally:
        handle.stop()
    assert len(_records(tmp_path, 3)) == 3


def test_warm_answer_is_recovered_identically(tmp_path):
    service = _service(tmp_path)
    run = _archive_run(service)
    cold, _ = service.submit("analyze", {"run": run.run_id})
    assert cold.wait(30)
    warm, _ = service.submit("analyze", {"run": run.run_id})
    assert len(_records(tmp_path, 3)) == 3
    service.close()

    restarted = _service(tmp_path, recover=True)
    recovered = restarted.get_job(warm.id)
    assert recovered is not None and recovered.recovered
    assert recovered.state == "done"
    assert _canonical(recovered.result) == _canonical(warm.result)
    assert restarted.counts["recovered"] == 2
    assert restarted.counts["requeued"] == 0
    restarted.close()


def test_journal_failure_on_the_warm_path_registers_nothing(tmp_path):
    service = _service(tmp_path)
    run = _archive_run(service)
    cold, _ = service.submit("analyze", {"run": run.run_id})
    assert cold.wait(30)
    assert len(_records(tmp_path, 2)) == 2
    before = service.status()

    def explode(job):
        raise OSError(28, "No space left on device")

    service.journal.record_state = explode
    with pytest.raises(OSError):
        service.submit("analyze", {"run": run.run_id})
    after = service.status()
    assert after["queue_depth"] == 0
    assert after["jobs_by_state"] == before["jobs_by_state"] == {"done": 1}
    assert after["counts"] == before["counts"]
    assert not service._active_keys
    service.close()


def test_undecodable_cell_takes_the_queue_and_fails_there(tmp_path):
    service = _service(tmp_path)
    run = _archive_run(service)
    cold, _ = service.submit("analyze", {"run": run.run_id})
    assert cold.wait(30)
    path = service.archive.store._cells_path(run.trace_digest)
    cells = json.loads(path.read_text())
    garbled = min(key for key in cells if key.startswith("findings|"))
    cells[garbled] = [1]  # valid JSON, not a finding
    path.write_text(json.dumps(cells))
    job, _ = service.submit("analyze", {"run": run.run_id})
    assert job.wait(30)
    assert job.state == "failed"
    assert service.counts["cache_hits"] == 0
    assert _records(tmp_path, 4)[2:] == [
        (job.id, "queued", None),
        (job.id, "failed", None),
    ]
    service.close()


def test_a_probe_answered_at_submit_closes_its_breaker(tmp_path):
    from repro.service import BreakerOpen

    now = [0.0]
    service = AnalysisService(
        Archive(tmp_path / "archive"),
        max_workers=1,
        breaker_threshold=1,
        breaker_cooldown=60.0,
    )
    service.breaker._clock = lambda: now[0]
    run = _archive_run(service)

    def crash(job):
        raise RuntimeError("injected cell crash")

    service._job_analyze = crash
    failed, _ = service.submit("analyze", {"run": run.run_id})
    assert failed.wait(30) and failed.state == "failed"
    deadline = time.monotonic() + 10
    while not service.status()["breakers"]:  # recorded after resolve
        assert time.monotonic() < deadline
        time.sleep(0.01)
    with pytest.raises(BreakerOpen):
        service.submit("analyze", {"run": run.run_id})

    service.archive.analyze(run)  # every cell stored
    now[0] += 60.0
    probe, _ = service.submit("analyze", {"run": run.run_id})
    assert probe.state == "done"
    assert service.status()["breakers"] == []
    again, _ = service.submit("analyze", {"run": run.run_id})
    assert again.state == "done"
    service.close()


def test_concurrent_answers_and_queued_jobs_keep_the_books(tmp_path):
    """Answers at submit race queued jobs for the lock and the journal."""
    import sys

    service = _service(tmp_path)
    run = _archive_run(service)
    cold, _ = service.submit("analyze", {"run": run.run_id})
    assert cold.wait(30)
    threads, per_thread = 6, 20
    jobs, errors = [], []

    def client(index):
        try:
            for i in range(per_thread):
                kind = "history" if (index + i) % 5 == 0 else "analyze"
                params = {} if kind == "history" else {"run": run.run_id}
                jobs.append(service.submit(kind, params)[0])
        except BaseException as exc:  # reported by the test thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        clients = [
            threading.Thread(target=client, args=(i,), daemon=True)
            for i in range(threads)
        ]
        for c in clients:
            c.start()
        for c in clients:
            c.join(60)
            assert not c.is_alive(), "a client hung"
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    assert all(job.wait(30) and job.state == "done" for job in jobs)
    warm = [job for job in jobs if job.kind == "analyze"]
    queued = len(jobs) - len(warm)
    assert all(job.result["cache"] == WARM for job in warm)
    assert len({job.id for job in jobs}) == len(jobs)
    records = 2 + len(warm) + 2 * queued
    assert len(_records(tmp_path, records)) == records
    counts = service.status()["counts"]
    total = len(jobs) + 1
    assert counts["submitted"] == counts["executed"] == total
    assert counts["done"] == total
    assert counts["cache_hits"] == CELLS * len(warm)
    assert counts["cache_misses"] == CELLS
    service.close()


_FAMILIES = (
    "ats_service_jobs_total",
    "ats_service_jobs_executed_total",
    "ats_service_cache_hits_total",
    "ats_service_cache_misses_total",
    "ats_service_coalesced_total",
    "ats_archive_hits_total",
    "ats_archive_misses_total",
    "ats_archive_runs_total",
)


def _drive(root, queued_only):
    """One cold then two warm analyzes; the jobs, counts and metrics."""
    reset_metrics()
    set_metrics_enabled(True)
    service = AnalysisService(Archive(root), max_workers=1)
    if queued_only:
        service._answer_stored = lambda *args: None
    run = _archive_run(service)
    jobs = []
    for _ in range(3):
        job, coalesced = service.submit("analyze", {"run": run.run_id})
        assert not coalesced
        assert job.wait(30) and job.state == "done"
        jobs.append(job)
    families = {
        m["name"]: sorted(
            (sorted(s["labels"].items()), s["value"])
            for s in m["samples"]
        )
        for m in to_json()["metrics"]
        if m["name"] in _FAMILIES
    }
    counts = dict(service.counts)
    service.close()
    return jobs, counts, families


def test_accounting_and_answers_match_a_queued_only_baseline(tmp_path):
    jobs, counts, families = _drive(tmp_path / "a", queued_only=False)
    base_jobs, base_counts, base_families = _drive(
        tmp_path / "b", queued_only=True
    )
    # the two warm analyzes were answered at submit, the baseline's
    # ran on a worker
    assert [job.queue_wait() is None for job in jobs] == [
        False, True, True,
    ]
    assert all(job.queue_wait() is not None for job in base_jobs)
    assert [job.result["cache"] for job in jobs] == [COLD, WARM, WARM]
    # byte-equal answers, cold and warm, and the same bookkeeping
    assert [_canonical(job.result) for job in jobs] == [
        _canonical(job.result) for job in base_jobs
    ]
    assert counts == base_counts
    assert counts["cache_misses"] == CELLS
    assert counts["cache_hits"] == 2 * CELLS
    assert counts["submitted"] == counts["executed"] == counts["done"] == 3
    assert families == base_families
    assert set(families) == set(_FAMILIES)


def test_answer_at_submit_traces_execute_and_cache_spans(service_env):
    set_spans_enabled(True)
    client = ServiceClient(service_env.url)
    client.analyze(service_env.run.run_id, wait=True)  # warm the cells
    req = urllib.request.Request(
        service_env.url + "/analyze",
        data=json.dumps({"run": service_env.run.run_id}).encode(),
        headers={
            "Content-Type": "application/json",
            "X-Request-Id": "req-warm-1",
        },
        method="POST",
    )
    with urllib.request.urlopen(req, timeout=30) as resp:
        assert resp.status == 202
        payload = json.loads(resp.read())
    assert payload["state"] == "done"
    names = [
        s.name for s in span_log()
        if (s.args or {}).get("request_id") == "req-warm-1"
    ]
    assert sorted(names) == ["archive-cache", "execute", "http-request"]
