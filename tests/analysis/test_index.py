"""TraceIndex: one-pass views must match the per-detector rescans."""

from repro.analysis import TraceIndex, analyze_run, analyze_events
from repro.analysis.detectors.base import (
    collective_instances,
    iter_region_visits,
    matched_p2p_pairs,
)
from repro.core import run_all_mpi_properties, run_hybrid_composite


def _trace():
    return run_all_mpi_properties(size=4).recorder.events


def test_index_is_a_sequence_view():
    events = _trace()
    index = TraceIndex(events)
    assert len(index) == len(events)
    assert index[0] is events[0]
    assert list(index) == events
    assert index[2:4] == events[2:4]


def test_region_visits_match_replay():
    events = _trace()
    index = TraceIndex(events)
    assert list(iter_region_visits(index)) == list(
        iter_region_visits(events)
    )


def test_p2p_pairs_match_rescan():
    events = _trace()
    index = TraceIndex(events)
    assert list(matched_p2p_pairs(index)) == list(
        matched_p2p_pairs(events)
    )


def test_collectives_match_rescan():
    events = _trace()
    index = TraceIndex(events)
    assert collective_instances(index) == collective_instances(events)


def test_by_kind_and_location_partition_the_trace():
    events = _trace()
    index = TraceIndex(events)
    assert sum(len(v) for v in index.by_kind.values()) == len(events)
    assert sum(len(v) for v in index.by_location.values()) == len(events)
    assert index.locations == sorted(index.by_location)


def test_analysis_identical_through_index():
    result = run_hybrid_composite(
        ("late_broadcast",),
        ("imbalance_in_omp_pregion",),
        size=4,
        num_threads=2,
    )
    direct = analyze_run(result)
    via_index = analyze_events(
        TraceIndex(result.recorder.events),
        total_time=result.final_time,
        comm_registry=result.recorder.comm_registry,
    )
    assert [
        (f.property, f.wait_time, f.callpath, f.loc)
        for f in direct.findings
    ] == [
        (f.property, f.wait_time, f.callpath, f.loc)
        for f in via_index.findings
    ]


def test_analyze_events_reuses_an_index_of_any_subclass(monkeypatch):
    # perfbench rebinds the analyzer's and the archive cache's
    # ``TraceIndex`` names to separate timed subclasses; an index built
    # through either must not be rebuilt by analyze_events
    from repro.analysis import analyzer

    built = []

    class Rebound(TraceIndex):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    class Elsewhere(TraceIndex):
        pass

    monkeypatch.setattr(analyzer, "TraceIndex", Rebound)
    events = _trace()
    cached = analyze_events(Elsewhere(events))
    assert built == []
    assert cached.findings == analyze_events(events).findings
    assert len(built) == 1
