"""Tests for trace persistence, timeline rendering and profiles."""

import json

import pytest

from repro.trace import (
    Enter,
    Exit,
    Location,
    TraceFormatError,
    TraceRecorder,
    profile_trace,
    read_trace,
    region_char,
    region_intervals,
    render_timeline,
    state_at,
    write_trace,
    format_profile,
)

L0 = Location(0, 0)
L1 = Location(1, 0)


def sample_events():
    rec = TraceRecorder()
    rec.enter(0.0, L0, "main")
    rec.enter(1.0, L0, "work")
    rec.exit(3.0, L0, "work")
    rec.enter(3.0, L0, "MPI_Send")
    rec.exit(4.0, L0, "MPI_Send")
    rec.exit(5.0, L0, "main")
    rec.enter(0.0, L1, "main")
    rec.enter(0.5, L1, "MPI_Recv")
    rec.exit(4.0, L1, "MPI_Recv")
    rec.exit(5.0, L1, "main")
    return rec.events


# ----------------------------------------------------------------------
# io
# ----------------------------------------------------------------------

def test_write_read_round_trip(tmp_path):
    events = sample_events()
    path = tmp_path / "trace.jsonl"
    n = write_trace(path, events, metadata={"program": "demo", "size": 2})
    assert n == len(events)
    loaded, meta = read_trace(path)
    assert loaded == events
    assert meta == {"program": "demo", "size": 2}


def test_read_rejects_non_trace_file(tmp_path):
    path = tmp_path / "bogus.jsonl"
    path.write_text('{"format": "other"}\n')
    with pytest.raises(ValueError, match="not an ats-trace"):
        read_trace(path)


def test_read_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_trace(path)


def test_read_rejects_bad_version(tmp_path):
    path = tmp_path / "v99.jsonl"
    path.write_text('{"format": "ats-trace", "version": 99}\n')
    with pytest.raises(ValueError, match="version"):
        read_trace(path)


def test_read_reports_line_of_bad_event(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"format": "ats-trace", "version": 1}\n'
        '{"kind": "bogus", "time": 0, "loc": "0.0"}\n'
    )
    with pytest.raises(ValueError, match=":2:"):
        read_trace(path)


def test_format_error_carries_path_and_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"format": "ats-trace", "version": 1}\n'
        '{"kind": "enter", "time": 0.0, "loc": "0.0", "region": "m",'
        ' "path": ["m"]}\n'
        "{broken\n"
    )
    with pytest.raises(TraceFormatError) as excinfo:
        read_trace(path)
    assert excinfo.value.path == path
    assert excinfo.value.lineno == 3


def test_skip_bad_lines_recovers_good_events(tmp_path):
    events = sample_events()
    path = tmp_path / "corrupt.jsonl"
    write_trace(path, events, metadata={"program": "demo"})
    lines = path.read_text().splitlines()
    # corrupt one event line mid-file and truncate the final one --
    # the crashed-run shape
    lines[3] = lines[3][: len(lines[3]) // 2]
    lines.append('{"kind": "unknown_kind", "time": 1}')
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceFormatError, match=":4:"):
        read_trace(path)
    loaded, meta = read_trace(path, skip_bad_lines=True)
    assert len(loaded) == len(events) - 1
    assert meta["skipped_lines"] == 2
    assert meta["program"] == "demo"


def test_skip_bad_lines_does_not_mask_bad_header(tmp_path):
    path = tmp_path / "hdr.jsonl"
    path.write_text("{broken header\n")
    with pytest.raises(TraceFormatError, match=":1:"):
        read_trace(path, skip_bad_lines=True)


def test_written_file_is_line_json(tmp_path):
    path = tmp_path / "t.jsonl"
    write_trace(path, sample_events())
    lines = path.read_text().strip().split("\n")
    for line in lines:
        json.loads(line)  # every line parses standalone


# ----------------------------------------------------------------------
# timeline
# ----------------------------------------------------------------------

def test_timeline_renders_all_locations():
    text = render_timeline(sample_events(), width=50)
    assert "0.0 |" in text and "1.0 |" in text
    assert "legend" in text


def test_timeline_categories():
    assert region_char("work") == "="
    assert region_char("MPI_Send") == "M"
    assert region_char("MPI_Bcast") == "C"
    assert region_char("MPI_Barrier") == "B"
    assert region_char("MPI_Init") == "I"
    assert region_char("omp_barrier") == "$"
    assert region_char("omp_for") == "o"
    assert region_char("my_phase") == "u"


def test_timeline_innermost_region_wins():
    text = render_timeline(sample_events(), width=10, t_end=5.0)
    row0 = next(l for l in text.splitlines() if l.strip().startswith("0.0"))
    cells = row0.split("|")[1]
    # bucket covering t in [1,3) is work, [3,4) is MPI_Send
    assert cells[2] == "="
    assert cells[6] == "M"


def test_timeline_empty_trace():
    assert "empty" in render_timeline([], width=10)


def test_state_at_reports_innermost():
    events = sample_events()
    assert state_at(events, L0, 2.0) == "work"
    assert state_at(events, L0, 3.5) == "MPI_Send"
    assert state_at(events, L0, 4.5) == "main"
    assert state_at(events, L0, 99.0) is None


# ----------------------------------------------------------------------
# profiles
# ----------------------------------------------------------------------

def test_profile_inclusive_and_exclusive_times():
    profile = profile_trace(sample_events())
    # main at L0: inclusive 5, children work(2) + send(1) -> exclusive 2
    main0 = profile.per_region[("main", L0)]
    assert main0.inclusive == pytest.approx(5.0)
    assert main0.exclusive == pytest.approx(2.0)
    work0 = profile.per_region[("work", L0)]
    assert work0.inclusive == pytest.approx(2.0)
    assert work0.exclusive == pytest.approx(2.0)


def test_profile_region_totals_sum_locations():
    profile = profile_trace(sample_events())
    assert profile.region_total("main") == pytest.approx(10.0)
    assert profile.exclusive_total("MPI_Recv") == pytest.approx(3.5)


def test_profile_total_time_and_locations():
    profile = profile_trace(sample_events())
    assert profile.total_time == pytest.approx(5.0)
    assert profile.locations == [L0, L1]


def test_profile_visit_counts():
    rec = TraceRecorder()
    for i in range(3):
        rec.enter(float(i), L0, "r")
        rec.exit(float(i) + 0.5, L0, "r")
    profile = profile_trace(rec.events)
    assert profile.per_region[("r", L0)].visits == 3
    assert profile.per_region[("r", L0)].inclusive == pytest.approx(1.5)


def test_format_profile_is_table():
    text = format_profile(profile_trace(sample_events()))
    assert "region" in text and "main" in text


def test_region_intervals_replay():
    intervals = list(region_intervals(sample_events()))
    # every enter/exit pair becomes exactly one interval
    assert len(intervals) == 5
    main0 = next(
        i for i in intervals if i.region == "main" and i.loc == L0
    )
    assert main0.enter == pytest.approx(0.0)
    assert main0.exit == pytest.approx(5.0)
    assert main0.inclusive == pytest.approx(5.0)
    assert main0.exclusive == pytest.approx(2.0)  # minus work + send
    assert main0.depth == 0
    work0 = next(i for i in intervals if i.region == "work")
    assert work0.depth == 1
    assert work0.path == ("main", "work")


def test_region_intervals_tolerates_truncation():
    rec = TraceRecorder()
    rec.enter(0.0, L0, "main")
    rec.enter(1.0, L0, "work")  # never exited
    assert list(region_intervals(rec.events)) == []


def test_region_intervals_closes_open_regions_only_on_request():
    rec = TraceRecorder()
    rec.enter(0.0, L0, "main")
    rec.enter(1.0, L0, "work")  # never exited
    rec.enter(2.0, L0, "MPI_Send")
    rec.exit(3.0, L0, "MPI_Send")
    assert [i.region for i in region_intervals(rec.events)] == ["MPI_Send"]
    closed = list(region_intervals(rec.events, close_open=True))
    # completed intervals first, then open ones innermost first, each
    # closed at the location's last event time
    assert [(i.region, i.depth) for i in closed] == [
        ("MPI_Send", 2), ("work", 1), ("main", 0),
    ]
    assert all(i.exit == pytest.approx(3.0) for i in closed)
    main = closed[-1]
    assert main.exclusive == pytest.approx(1.0)  # minus work's 2 s
