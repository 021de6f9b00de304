"""HTTP integration: routes, coalescing, rate limits, drain, tracing."""

import html as html_lib
import json
import threading
import time
import urllib.request

import pytest

from repro.archive import Archive
from repro.obs import set_spans_enabled, span_log
from repro.service import (
    AnalysisService,
    ServiceClient,
    ServiceHTTPError,
    run_service_in_thread,
)
from repro.service.dashboard import render_watch


# ----------------------------------------------------------------------
# basic routes
# ----------------------------------------------------------------------

def test_healthz_and_unknown_routes(service_env):
    client = ServiceClient(service_env.url)
    assert client.healthz() == {"ok": True}
    with pytest.raises(ServiceHTTPError) as excinfo:
        client._request("GET", "/nope")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceHTTPError) as excinfo:
        client._request("GET", "/analyze")
    assert excinfo.value.status == 405


def test_submit_poll_roundtrip(service_env):
    client = ServiceClient(service_env.url)
    resp = client.analyze(service_env.run.run_id)
    assert resp["job"].startswith("job-")
    done = client.job(resp["job"], wait=True)
    assert done["state"] == "done"
    assert "late_sender" in done["result"]["detected"]


def test_wait_inline_returns_result(service_env):
    client = ServiceClient(service_env.url)
    done = client.analyze(service_env.run.run_id, wait=True)
    assert done["state"] == "done"
    assert done["result"]["findings"] > 0


def test_submit_run_then_diff(service_env):
    client = ServiceClient(service_env.url)
    out = client.submit_run(
        "late_sender", size=4, threads=2, seed=2, wait=True
    )
    assert out["state"] == "done"
    other = out["result"]["run_id"]
    diff = client.diff(service_env.run.run_id, other, wait=True)
    assert diff["state"] == "done"
    assert diff["result"]["report"]["is_regression"] is False


def test_history_runs_as_job(service_env):
    client = ServiceClient(service_env.url)
    out = client.history()
    assert out["kind"] == "history"
    assert out["result"]["count"] == 1
    assert out["result"]["runs"][0]["run_id"] == service_env.run.run_id


def test_bad_submissions_are_400(service_env):
    client = ServiceClient(service_env.url)
    for call in (
        lambda: client.analyze("doesnotexist"),
        lambda: client.submit_run("not_a_property"),
        lambda: client.diff("nope", "alsono"),
    ):
        with pytest.raises(ServiceHTTPError) as excinfo:
            call()
        assert excinfo.value.status == 400


def test_malformed_param_is_400_naming_it(service_env):
    client = ServiceClient(service_env.url)
    with pytest.raises(ServiceHTTPError) as excinfo:
        client.submit_run("late_sender", size="x")
    assert excinfo.value.status == 400
    assert "size" in excinfo.value.payload["error"]


# ----------------------------------------------------------------------
# coalescing over HTTP
# ----------------------------------------------------------------------

def test_concurrent_identical_analyzes_one_cell_same_responses(
    service_env,
):
    service = service_env.service
    gate = threading.Event()
    service._job_history = lambda job: gate.wait(30) or {"count": 0}
    # occupy both workers so the analyzes stay in queue
    blockers = [
        service.submit("history", {})[0] for _ in range(2)
    ]

    n = 6
    responses = []
    errors = []

    def waiter():
        try:
            client = ServiceClient(service_env.url)
            responses.append(
                client.analyze(service_env.run.run_id, wait=True)
            )
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(exc)

    threads = [threading.Thread(target=waiter) for _ in range(n)]
    for t in threads:
        t.start()
    # let every request reach the service before unblocking
    deadline = time.monotonic() + 10
    while service.counts["submitted"] < 2 + n:
        assert time.monotonic() < deadline, "submissions never arrived"
        time.sleep(0.01)
    executed_before = service.counts["executed"]
    gate.set()
    for t in threads:
        t.join(timeout=30)
    assert not errors
    assert len(responses) == n
    # one executor cell for all N requests (plus the two blockers)...
    assert service.counts["executed"] == executed_before + 2 + 1
    assert service.counts["coalesced"] == n - 1
    # ...and N identical responses (same job, same result)
    ids = {r["id"] for r in responses}
    assert len(ids) == 1
    results = {json.dumps(r["result"], sort_keys=True)
               for r in responses}
    assert len(results) == 1
    for b in blockers:
        assert b.wait(30)


# ----------------------------------------------------------------------
# rate limiting over HTTP
# ----------------------------------------------------------------------

def test_over_budget_tenant_gets_429_others_proceed(tmp_path):
    from repro.core import get_property
    from repro.obs import set_metrics_enabled

    set_metrics_enabled(True)
    archive = Archive(tmp_path / "archive")
    run = archive.archive_run(
        get_property("late_sender"), size=4, num_threads=2, seed=1
    )
    service = AnalysisService(
        archive, max_workers=2, rate=1.0, burst=2
    )
    handle = run_service_in_thread(service)
    try:
        greedy = ServiceClient(handle.url, tenant="greedy")
        calm = ServiceClient(handle.url, tenant="calm")
        greedy.analyze(run.run_id)
        greedy.analyze(run.run_id)
        with pytest.raises(ServiceHTTPError) as excinfo:
            greedy.analyze(run.run_id)
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after is not None
        assert excinfo.value.retry_after >= 1.0
        # the other tenant's bucket is untouched
        out = calm.analyze(run.run_id, wait=True)
        assert out["state"] == "done"
        status = calm.status()
        assert status["counts"]["rate_limited"] == 1
    finally:
        handle.stop(drain=False)


# ----------------------------------------------------------------------
# drain
# ----------------------------------------------------------------------

def test_drain_then_submissions_get_503(service_env):
    client = ServiceClient(service_env.url)
    client.analyze(service_env.run.run_id, wait=True)
    out = client.drain()
    assert out["drained"] is True
    with pytest.raises(ServiceHTTPError) as excinfo:
        client.analyze(service_env.run.run_id)
    assert excinfo.value.status == 503
    # read-only endpoints stay up while draining
    assert client.status()["accepting"] is False
    assert "ats_service" in client.metrics()


# ----------------------------------------------------------------------
# metrics endpoints
# ----------------------------------------------------------------------

def _parse_prometheus(text):
    """Minimal exposition-format check: returns {family: type}."""
    types = {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            types[name] = kind
        elif line and not line.startswith("#"):
            # every sample line is "name{labels} value" or "name value"
            head, _, value = line.rpartition(" ")
            assert head, f"malformed sample line: {line!r}"
            float(value)
    return types


def test_metrics_is_valid_prometheus_with_service_families(
    service_env,
):
    client = ServiceClient(service_env.url)
    client.analyze(service_env.run.run_id, wait=True)
    types = _parse_prometheus(client.metrics())
    assert types["ats_service_requests_total"] == "counter"
    assert types["ats_service_request_seconds"] == "histogram"
    assert types["ats_service_queue_depth"] == "gauge"
    assert types["ats_service_coalesced_total"] == "counter"
    assert types["ats_service_cache_hits_total"] == "counter"
    text = client.metrics()
    assert 'ats_service_request_seconds_bucket{endpoint="analyze"' in text


def _samples(text, family):
    """``{labels: value}`` of one family's sample lines."""
    out = {}
    for line in text.splitlines():
        if line.startswith((family + "{", family + " ")):
            head, _, value = line.rpartition(" ")
            out[head[len(family):]] = float(value)
    return out


def test_cold_analyze_feeds_the_analysis_metrics(service_env):
    from repro.analysis import DEFAULT_DETECTORS

    client = ServiceClient(service_env.url)
    cold = client.analyze(service_env.run.run_id, wait=True)["result"]
    assert cold["cache"]["hits"] == 0
    text = client.metrics()
    seconds = _samples(text, "ats_analysis_detector_seconds_total")
    assert sorted(seconds) == sorted(
        f'{{detector="{type(d).__name__}"}}' for d in DEFAULT_DETECTORS
    )
    findings = _samples(text, "ats_analysis_findings_total")
    assert sum(findings.values()) == cold["findings"] > 0
    # a warm repeat assembles from cells and runs no detector
    warm = client.analyze(service_env.run.run_id, wait=True)["result"]
    assert warm["cache"]["misses"] == 0
    text = client.metrics()
    assert _samples(text, "ats_analysis_detector_seconds_total") == seconds
    assert _samples(text, "ats_analysis_findings_total") == findings


def test_metrics_json_carries_quantiles(service_env):
    client = ServiceClient(service_env.url)
    client.analyze(service_env.run.run_id, wait=True)
    payload = client.metrics_json()
    fam = next(
        m for m in payload["metrics"]
        if m["name"] == "ats_service_request_seconds"
    )
    sample = fam["samples"][0]
    assert set(sample["quantiles"]) == {"p50", "p95", "p99"}
    assert sample["quantiles"]["p99"] is not None


def test_status_reports_latency_quantiles(service_env):
    client = ServiceClient(service_env.url)
    client.analyze(service_env.run.run_id, wait=True)
    status = client.status()
    assert "analyze" in status["latency"]
    entry = status["latency"]["analyze"]
    assert entry["count"] >= 1
    assert entry["p50"] is not None and entry["p99"] is not None


def test_dashboard_renders_html(service_env):
    client = ServiceClient(service_env.url)
    html = client._request("GET", "/dashboard", raw=True)
    assert html.startswith("<!DOCTYPE html>")
    assert "ats analysis service" in html
    # the page is the watch frame, escaped: its jobs line appears verbatim
    frame = html_lib.escape(render_watch(client.status()))
    jobs_line = next(
        line for line in frame.splitlines()
        if line.lstrip().startswith("jobs:")
    )
    assert jobs_line in html


# ----------------------------------------------------------------------
# campaigns in /status
# ----------------------------------------------------------------------

def test_campaign_progress_visible_in_status(service_env):
    client = ServiceClient(service_env.url)
    resp = client.campaign(
        properties=["late_sender", "late_receiver"],
        size=4, threads=2,
    )
    job_id = resp["job"]
    seen_inflight = False
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        status = client.status()
        snaps = {c["job_id"]: c for c in status["campaigns"]}
        if job_id in snaps:
            snap = snaps[job_id]
            if snap["done"] + snap["failed"] < snap["total"]:
                seen_inflight = True
            if snap["done"] + snap["failed"] == snap["total"] == 2:
                break
        time.sleep(0.005)
    done = client.job(job_id, wait=True)
    assert done["state"] == "done"
    assert done["result"]["all_passed"] is True
    assert done["result"]["progress"]["done"] == 2
    final = client.status()
    snap = {c["job_id"]: c for c in final["campaigns"]}[job_id]
    assert snap["done"] == 2
    # in-flight visibility is timing-dependent but expected: the poll
    # loop races two multi-run property executions.
    assert seen_inflight or snap["done"] == 2


# ----------------------------------------------------------------------
# request tracing
# ----------------------------------------------------------------------

def test_request_id_propagates_to_job_and_spans(service_env):
    set_spans_enabled(True)
    req = urllib.request.Request(
        service_env.url + "/analyze",
        data=json.dumps(
            {"run": service_env.run.run_id, "wait": True}
        ).encode(),
        headers={
            "Content-Type": "application/json",
            "X-Request-Id": "req-traced-1",
        },
        method="POST",
    )
    with urllib.request.urlopen(req, timeout=30) as resp:
        assert resp.headers["X-Request-Id"] == "req-traced-1"
        payload = json.loads(resp.read())
    assert payload["request_id"] == "req-traced-1"
    assert payload["state"] == "done"

    spans = [
        s for s in span_log()
        if (s.args or {}).get("request_id") == "req-traced-1"
    ]
    names = {s.name for s in spans}
    # the end-to-end thread: accept -> queue -> executor -> cache
    assert {"http-request", "queue-wait", "execute",
            "archive-cache"} <= names
