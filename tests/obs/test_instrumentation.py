"""End-to-end instrumentation: real runs populate the registry.

These tests run small simulated programs with the observability layer
switched on and assert that every subsystem's metric families carry
plausible values -- the acceptance shape of ``ats metrics``.
"""

import pytest

from repro.analysis import analyze_run
from repro.core import get_property, run_hybrid_composite
from repro.obs import (
    reset_metrics,
    reset_spans,
    set_metrics_enabled,
    set_spans_enabled,
    span_log,
    to_json,
    to_prometheus,
)


def _sample(registry_doc, name):
    for metric in registry_doc["metrics"]:
        if metric["name"] == name:
            return metric
    raise AssertionError(f"metric {name} missing from snapshot")


@pytest.fixture
def enabled():
    set_metrics_enabled(True)
    set_spans_enabled(True)
    reset_metrics()
    reset_spans()


def test_mpi_run_populates_all_layers(enabled):
    result = get_property("late_sender").run(size=4, seed=0)
    analyze_run(result)
    doc = to_json()
    # simkernel
    assert _sample(doc, "ats_sim_dispatches_total")["samples"][0]["value"] > 0
    assert _sample(doc, "ats_sim_processes_total")["samples"][0]["value"] >= 4
    depth = _sample(doc, "ats_sim_run_queue_depth")["samples"][0]
    assert depth["count"] > 0
    # worker pool (collector-harvested)
    assert _sample(doc, "ats_workers_spawned_total")["samples"][0]["value"] > 0
    # transport
    assert _sample(doc, "ats_mpi_bytes_total")["samples"][0]["value"] > 0
    protocols = {
        s["labels"]["protocol"]: s["value"]
        for s in _sample(doc, "ats_mpi_messages_total")["samples"]
    }
    assert sum(protocols.values()) >= 6
    # trace (harvested by recorder.finish())
    kinds = {
        s["labels"]["kind"]: s["value"]
        for s in _sample(doc, "ats_trace_events_total")["samples"]
    }
    assert kinds.get("enter", 0) > 0 and kinds.get("send", 0) > 0
    interned = _sample(doc, "ats_trace_intern_entries_total")
    requests = _sample(doc, "ats_trace_intern_requests_total")
    assert 0 < interned["samples"][0]["value"] <= requests["samples"][0]["value"]
    # analysis
    assert _sample(doc, "ats_analysis_runs_total")["samples"][0]["value"] == 1
    finds = {
        s["labels"]["property"]: s["value"]
        for s in _sample(doc, "ats_analysis_findings_total")["samples"]
    }
    assert finds.get("late_sender", 0) > 0


def test_hybrid_run_populates_omp_metrics(enabled):
    run_hybrid_composite(
        ("late_broadcast",),
        ("imbalance_at_omp_barrier",),
        size=2,
        num_threads=3,
        seed=0,
    )
    doc = to_json()
    forks = _sample(doc, "ats_omp_teams_forked_total")["samples"][0]["value"]
    joins = _sample(doc, "ats_omp_teams_joined_total")["samples"][0]["value"]
    assert forks == joins > 0
    waits = _sample(doc, "ats_omp_barrier_waits_total")["samples"][0]["value"]
    assert waits >= 3  # at least one full-team barrier
    hist = _sample(doc, "ats_omp_barrier_wait_seconds")["samples"][0]
    assert hist["count"] == waits


def test_prometheus_output_is_parseable(enabled):
    get_property("late_sender").run(size=4, seed=0)
    text = to_prometheus()
    lines = [l for l in text.splitlines() if l]
    assert lines, "empty exposition"
    for line in lines:
        if line.startswith("#"):
            assert line.startswith(("# HELP ", "# TYPE "))
        else:
            # every sample line is "name{labels} value"
            name, value = line.rsplit(" ", 1)
            float(value)
            assert name[0].isalpha()


def test_analysis_spans_recorded(enabled):
    result = get_property("late_sender").run(size=4, seed=0)
    analyze_run(result)
    names = {s.name for s in span_log()}
    assert "analysis:index" in names
    assert "analysis:LateSenderDetector" in names


def test_cold_archived_analyze_times_its_index_build(tmp_path):
    from repro.archive import Archive

    archive = Archive(tmp_path / "archive")
    run = archive.archive_run(
        get_property("late_sender"), size=4, num_threads=2, seed=1
    )

    def index_build():
        spans = [s for s in span_log() if s.name == "analysis:index"]
        seconds = [
            sample["value"]
            for metric in to_json()["metrics"]
            if metric["name"] == "ats_analysis_index_build_seconds_total"
            for sample in metric["samples"]
        ]
        return len(spans), sum(seconds)

    for expect_cold in (True, False):
        set_metrics_enabled(True)
        set_spans_enabled(True)
        reset_metrics()
        reset_spans()
        archive.analyze(run)
        spans, seconds = index_build()
        if expect_cold:
            assert spans == 1 and seconds > 0.0
        else:  # every cell hits: no trace is read, no index built
            assert spans == 0 and seconds == 0.0


def test_cold_dataset_export_times_its_feature_step(tmp_path):
    from repro.archive import Archive
    from repro.stats import dataset_rows
    from repro.synth import CampaignSpec, run_campaign

    archive = Archive(tmp_path / "archive")
    run_campaign(
        CampaignSpec(name="obs-ds", scenarios=2, sizes=(4,), seed=3),
        archive=archive,
    )
    set_metrics_enabled(True)
    set_spans_enabled(True)
    reset_metrics()
    reset_spans()
    dataset_rows(archive)  # cold: every run's features are derived
    spans = [s for s in span_log() if s.name == "stats:features"]
    labeled = [r for r in archive.history() if r.manifest is not None]
    assert labeled and len(spans) == len(labeled)
    feature_seconds = _sample(to_json(), "ats_stats_feature_seconds_total")
    assert feature_seconds["samples"][0]["value"] > 0.0


def _feature_steps():
    spans = [s for s in span_log() if s.name == "stats:features"]
    rows = _sample(to_json(), "ats_stats_feature_rows_total")
    return len(spans), rows["samples"][0]["value"]


def test_both_family_analysis_derives_features_once(enabled):
    from repro.stats import battery_for

    run = get_property("late_sender").run(size=8, seed=0)
    analyze_run(run, detectors=battery_for(("rule", "similarity")))
    # both statistical detectors read one matrix of 8 rank rows
    assert _feature_steps() == (1, 8)
    assert len([s for s in span_log() if s.name == "stats:cluster"]) == 1


def test_cold_archive_analyze_derives_features_once(
    tmp_path, monkeypatch, enabled
):
    from repro.archive import Archive, CacheStats
    from repro.stats import SIMILARITY_PROPERTY_IDS, battery_for
    from repro.stats import detector as stats_detector

    archive = Archive(tmp_path / "archive")
    run = archive.archive_run(get_property("late_sender"), size=8, seed=0)
    builds = []
    real = stats_detector.behavior_matrix

    def counted(*args, **kwargs):
        builds.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(stats_detector, "behavior_matrix", counted)
    battery = battery_for(("rule", "similarity"))
    cold = CacheStats()
    result = archive.analyze(run, detectors=battery, stats=cold)
    # every cell missed, so each detector ran in its own analyze_events
    # over the one index; the two similarity cells shared one build
    assert cold.misses == len(battery) + 1
    assert len(builds) == 1
    assert _feature_steps() == (1, 8)
    assert set(SIMILARITY_PROPERTY_IDS) <= {
        f.property for f in result.findings
    }
    warm = CacheStats()
    assert archive.analyze(run, detectors=battery, stats=warm) == result
    assert warm.misses == 0 and len(builds) == 1


def test_disabled_run_records_nothing():
    set_metrics_enabled(False)
    set_spans_enabled(False)
    reset_metrics()
    reset_spans()
    result = get_property("late_sender").run(size=4, seed=0)
    analyze_run(result)
    assert to_json()["metrics"] == []
    assert len(span_log()) == 0
