"""Core registry semantics and the two textual exporters."""

import json

import pytest

from repro.obs import (
    get_registry,
    kernel_metrics,
    metrics_enabled,
    reset_metrics,
    set_metrics_enabled,
    span,
    to_json,
    to_prometheus,
    trace_metrics,
    transport_metrics,
)
from repro.obs.spans import _NOOP_SPAN


def test_counter_and_gauge_math():
    reg = reset_metrics()
    c = reg.counter("t_total", "help")
    c.inc()
    c.inc(2.5)
    assert c.value == pytest.approx(3.5)
    g = reg.gauge("t_gauge", "help")
    g.set(10)
    g.dec(4)
    g.inc()
    assert g.value == pytest.approx(7.0)


def test_histogram_buckets_sum_count():
    reg = reset_metrics()
    h = reg.histogram("t_hist", "help", buckets=(1.0, 10.0))
    for v in (0.5, 0.7, 5.0, 100.0):
        h.observe(v)
    assert h.counts == [2, 1, 1]  # <=1, <=10, overflow
    assert h.count == 4
    assert h.sum == pytest.approx(106.2)


def test_labeled_children_are_cached():
    reg = reset_metrics()
    fam = reg.counter("t_labeled_total", "help", labelnames=("kind",))
    a = fam.labels(kind="x")
    b = fam.labels(kind="x")
    assert a is b
    assert fam.labels(kind="y") is not a


def test_label_name_mismatch_rejected():
    reg = reset_metrics()
    fam = reg.counter("t_labels_total", "help", labelnames=("kind",))
    with pytest.raises(ValueError, match="expected labels"):
        fam.labels(flavor="x")


def test_redeclaration_must_match():
    reg = reset_metrics()
    reg.counter("t_redeclare", "help")
    again = reg.counter("t_redeclare", "other help text is fine")
    assert again is reg.counter("t_redeclare", "help")
    with pytest.raises(ValueError, match="re-declared"):
        reg.gauge("t_redeclare", "help")


def test_disabled_accessors_return_none():
    set_metrics_enabled(False)
    reset_metrics()
    assert kernel_metrics() is None
    assert transport_metrics() is None
    assert trace_metrics() is None


def test_enabled_bundles_are_cached_per_registry():
    set_metrics_enabled(True)
    reset_metrics()
    assert kernel_metrics() is kernel_metrics()
    reset_metrics()
    # a fresh registry gets a fresh bundle
    first = transport_metrics()
    assert first is transport_metrics()


def test_disabled_span_is_shared_singleton():
    assert span("anything") is _NOOP_SPAN
    with span("anything"):
        pass


def test_prometheus_exposition_format():
    reg = reset_metrics()
    c = reg.counter("t_requests_total", "Requests seen")
    c.inc(3)
    fam = reg.counter("t_by_kind_total", "By kind", labelnames=("kind",))
    fam.labels(kind='we"ird').inc()
    h = reg.histogram("t_lat_seconds", "Latency", buckets=(0.1, 1.0))
    h.observe(0.05)
    h.observe(0.5)
    h.observe(5.0)
    text = to_prometheus(reg)
    assert "# HELP t_requests_total Requests seen\n" in text
    assert "# TYPE t_requests_total counter\n" in text
    assert "\nt_requests_total 3\n" in text
    assert 't_by_kind_total{kind="we\\"ird"} 1' in text
    # buckets are cumulative and +Inf matches the total count
    assert 't_lat_seconds_bucket{le="0.1"} 1' in text
    assert 't_lat_seconds_bucket{le="1"} 2' in text
    assert 't_lat_seconds_bucket{le="+Inf"} 3' in text
    assert "t_lat_seconds_count 3" in text


def test_json_snapshot_shape():
    reg = reset_metrics()
    reg.counter("t_a_total", "a").inc()
    h = reg.histogram("t_h_seconds", "h", buckets=(1.0,))
    h.observe(0.5)
    doc = to_json(reg)
    json.dumps(doc)  # fully serializable
    assert doc["format"] == "ats-metrics"
    by_name = {m["name"]: m for m in doc["metrics"]}
    assert by_name["t_a_total"]["samples"][0]["value"] == 1
    hist = by_name["t_h_seconds"]["samples"][0]
    assert hist["buckets"] == {"1": 1}
    assert hist["count"] == 1


def test_set_enabled_returns_previous():
    first = set_metrics_enabled(True)
    assert set_metrics_enabled(first) is True
    assert metrics_enabled() is first


def test_collectors_run_at_collect_time():
    reg = reset_metrics()
    calls = []
    reg.register_collector(lambda r: calls.append(r))
    reg.collect()
    assert calls == [reg]
    assert get_registry() is reg
