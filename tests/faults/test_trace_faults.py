"""Write-time trace faults and the salvage recovery path."""

import hashlib

import pytest

from repro.core.registry import get_property
from repro.faults import (
    DropRecords,
    DuplicateRecords,
    FaultInjector,
    FaultPlan,
    TruncateTrace,
)
from repro.trace.io import (
    TraceFormatError,
    read_trace,
    write_trace,
)


@pytest.fixture(scope="module")
def events():
    run = get_property("late_sender").run(size=4, num_threads=2, seed=0)
    return run.events


def _faulty(plan, seed=0):
    return FaultInjector.coerce(plan, seed=seed)


def test_drop_records_shrinks_the_trace(tmp_path, events):
    path = tmp_path / "t.jsonl"
    write_trace(
        path, events, faults=_faulty(FaultPlan.of(DropRecords(0.3)))
    )
    kept, _ = read_trace(path)
    assert 0 < len(kept) < len(events)


def test_duplicate_records_grows_the_trace(tmp_path, events):
    path = tmp_path / "t.jsonl"
    write_trace(
        path, events, faults=_faulty(FaultPlan.of(DuplicateRecords(0.3)))
    )
    kept, _ = read_trace(path)
    assert len(kept) > len(events)


def test_truncation_leaves_partial_final_record(tmp_path, events):
    path = tmp_path / "t.jsonl"
    write_trace(
        path, events, faults=_faulty(FaultPlan.of(TruncateTrace(0.3)))
    )
    # the cut lands mid-line: a plain read fails on the last line...
    with pytest.raises(TraceFormatError):
        read_trace(path)
    # ...and salvage recovers everything before it
    kept, metadata = read_trace(path, salvage=True)
    assert metadata["truncated"] is True
    assert 0 < len(kept) < len(events)


def test_salvage_does_not_mask_midfile_corruption(tmp_path, events):
    path = tmp_path / "t.jsonl"
    write_trace(path, events[:10])
    lines = path.read_text().splitlines(keepends=True)
    lines[4] = "{broken json\n"  # corruption followed by more records
    path.write_text("".join(lines))
    with pytest.raises(TraceFormatError, match=":5:"):
        read_trace(path, salvage=True)
    # skip-bad-lines still gets past it
    kept, metadata = read_trace(path, skip_bad_lines=True)
    assert metadata["skipped_lines"] == 1
    assert len(kept) == 9


def test_trailing_truncation_with_skip_bad_lines_reports_truncated(
    tmp_path, events
):
    # Regression: with *both* recovery flags (the robustness sweep's
    # invocation) a trailing mid-record truncation used to be counted
    # as one skipped line, with ``truncated`` never set.
    path = tmp_path / "t.jsonl"
    write_trace(
        path, events, faults=_faulty(FaultPlan.of(TruncateTrace(0.3)))
    )
    kept, metadata = read_trace(path, skip_bad_lines=True, salvage=True)
    assert metadata["truncated"] is True
    assert "skipped_lines" not in metadata
    assert 0 < len(kept) < len(events)
    # and both flags agree with salvage alone
    salvage_only, salvage_md = read_trace(path, salvage=True)
    assert len(salvage_only) == len(kept)
    assert salvage_md["truncated"] is True


def test_trace_faults_deterministic(tmp_path, events):
    plan = FaultPlan.of(
        DropRecords(0.1), DuplicateRecords(0.1), TruncateTrace(0.1)
    )
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    write_trace(a, events, faults=_faulty(plan, seed=4))
    write_trace(b, events, faults=_faulty(plan, seed=4))
    assert a.read_bytes() == b.read_bytes()


def test_trace_faults_golden_digest(tmp_path, events):
    # Pins the record-fault draw order and the truncation cut: the same
    # events, plan and seed must always give exactly these bytes.
    plan = FaultPlan.of(
        DropRecords(0.1), DuplicateRecords(0.1), TruncateTrace(0.1)
    )
    path = tmp_path / "t.jsonl"
    n = write_trace(
        path,
        events,
        metadata={"program": "late_sender"},
        faults=_faulty(plan, seed=4),
    )
    data = path.read_bytes()
    assert n == len(events) == 84
    assert len(data) == 8579
    assert hashlib.sha256(data).hexdigest() == (
        "7ef6a1589343f7c74be92b4133aa5a516f7f9d2006d0128fbe42670726e389e2"
    )


@pytest.mark.parametrize("keep", [0, 1, 9, 36, 60])
def test_salvage_reads_a_cut_header_as_truncated(tmp_path, events, keep):
    # a cut inside the header line, which opens with the 36 bytes
    # '{"format": "ats-trace", "version": 1': an empty file, a prefix
    # of that opening, or a line extending it
    path = tmp_path / "t.jsonl"
    write_trace(path, events, metadata={"program": "late_sender"})
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(
        TraceFormatError, match="empty trace file|corrupt header"
    ):
        read_trace(path)
    for skip in (False, True):
        assert read_trace(path, skip_bad_lines=skip, salvage=True) == (
            [],
            {"truncated": True},
        )


def test_salvage_still_rejects_a_foreign_header(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"format": "other-trace"')
    with pytest.raises(TraceFormatError, match="corrupt header"):
        read_trace(path, salvage=True)


def test_no_faults_means_untouched_trace(tmp_path, events):
    clean = tmp_path / "clean.jsonl"
    via_none = tmp_path / "none.jsonl"
    write_trace(clean, events)
    write_trace(via_none, events, faults=None)
    assert clean.read_bytes() == via_none.read_bytes()
