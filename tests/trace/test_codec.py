"""The trace codec against its reference.

The reference encoder is the one the template encoder replaced: the
header line plus ``json.dumps(e.to_dict()) + "\\n"`` per event.  The
golden digests pin what the recorder writes; these properties pin the
fallbacks it never reaches -- wrong exact types, nan and infinities,
huge ints, control and non-ASCII characters, event subclasses -- and
that the positional parser builds what ``event_from_dict`` builds.
"""

import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults import (
    DropRecords,
    DuplicateRecords,
    FaultInjector,
    FaultPlan,
)
from repro.trace.events import (
    CollExit,
    Enter,
    Exit,
    Fork,
    Join,
    Location,
    Recv,
    Send,
    event_from_dict,
)
from repro.trace.io import (
    EVENT_KEYS,
    TraceFormatError,
    _header_line,
    events_from_jsonl,
    events_to_jsonl,
)

KINDS = (Enter, Exit, Send, Recv, CollExit, Fork, Join)
METADATA = {"program": "codec", "seed": 3}


def reference_jsonl(events, metadata=None, faults=None):
    """The reference encoder: one ``json.dumps`` per event."""
    parts = [_header_line(metadata)]
    for e in events:
        copies = 1 if faults is None else faults.record_copies()
        parts.append((json.dumps(e.to_dict()) + "\n") * copies)
    return "".join(parts)


@dataclasses.dataclass(slots=True)
class TaggedSend(Send):
    """A subclass: same kind and keys, never on the template path."""


big_ints = st.integers(min_value=-(2**80), max_value=2**80)
small_ints = st.integers(min_value=-3, max_value=70)
special_floats = st.sampled_from(
    [0.0, -0.0, 1e16, 5e-324, 1.5, float("nan"), float("inf"),
     float("-inf")]
)
times = st.one_of(
    st.floats(min_value=0.0, max_value=1e3), special_floats, big_ints
)
names = st.one_of(
    st.sampled_from(["MPI_Send", "main", "omp_barrier", ""]),
    st.text(max_size=6),
    st.text(st.characters(max_codepoint=0x1F), max_size=3),
)
# mostly the recorder's own types, sometimes the wrong exact type
counters = st.one_of(big_ints, big_ints, st.booleans(), special_floats)
flags = st.one_of(st.booleans(), st.booleans(), st.integers(0, 1))
locations = st.one_of(
    st.builds(Location, small_ints, small_ints),
    st.builds(Location, small_ints, small_ints),
    st.builds(Location, st.booleans(), small_ints),
    st.tuples(small_ints, small_ints),
)
path_parts = st.lists(names, max_size=3)
paths = st.one_of(
    path_parts.map(tuple),
    path_parts.map(tuple),
    path_parts,
    st.lists(st.one_of(names, small_ints, st.booleans()), max_size=2).map(
        tuple
    ),
)
common = {"time": times, "loc": locations, "path": paths}
point_to_point = dict(
    common, peer=counters, tag=counters, comm_id=counters,
    nbytes=counters, msg_id=counters, internal=flags,
)
events_strategy = st.lists(
    st.one_of(
        st.builds(Enter, region=names, **common),
        st.builds(Exit, region=names, **common),
        st.builds(Send, **point_to_point),
        st.builds(TaggedSend, **point_to_point),
        st.builds(Recv, post_time=times, **point_to_point),
        st.builds(
            CollExit, op=names, comm_id=counters, instance=counters,
            root=counters, enter_time=times, bytes_sent=counters,
            bytes_recv=counters, **common,
        ),
        st.builds(
            Fork, team_size=counters, team_id=counters, **common
        ),
        st.builds(Join, team_id=counters, **common),
    ),
    max_size=12,
)

codec_settings = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _parseable(line):
    """``event_from_dict`` of one line, or None when it raises."""
    try:
        return event_from_dict(json.loads(line))
    except (ValueError, TypeError, KeyError, AttributeError):
        return None


@pytest.mark.parametrize("cls", KINDS)
def test_event_keys_are_the_to_dict_order(cls):
    event = cls(time=0.5, loc=Location(1, 0))
    assert EVENT_KEYS[cls.kind] == tuple(event.to_dict())


def test_event_keys_cover_every_kind():
    assert set(EVENT_KEYS) == {cls.kind for cls in KINDS}


@codec_settings
@given(events=events_strategy)
def test_encoder_matches_the_reference(events):
    assert events_to_jsonl(events, METADATA) == reference_jsonl(
        events, METADATA
    )
    assert events_to_jsonl(events) == reference_jsonl(events)


@codec_settings
@given(events=events_strategy, seed=st.integers(0, 2**32))
def test_encoder_draws_record_faults_like_the_reference(events, seed):
    plan = FaultPlan.of(DropRecords(0.3), DuplicateRecords(0.3))
    ours, theirs = FaultInjector(plan, seed), FaultInjector(plan, seed)
    assert events_to_jsonl(events, METADATA, ours) == reference_jsonl(
        events, METADATA, theirs
    )
    # both drew once per event: the streams are still in step
    assert ours.record_copies() == theirs.record_copies()


@codec_settings
@given(events=events_strategy)
def test_parser_matches_event_from_dict(events):
    header, *lines = reference_jsonl(events, METADATA).splitlines(True)
    expected = [_parseable(line) for line in lines]
    good = [line for line, e in zip(lines, expected) if e is not None]
    parsed, metadata = events_from_jsonl(header + "".join(good))
    assert metadata == METADATA
    # repr tells 1 from 1.0 and True, -0.0 from 0.0, a tuple from a
    # list, and prints nan, which never compares equal
    assert [repr(e) for e in parsed] == [
        repr(e) for e in expected if e is not None
    ]
    bad = [i + 2 for i, e in enumerate(expected) if e is None]
    text = header + "".join(lines)
    if bad:
        with pytest.raises(TraceFormatError) as info:
            events_from_jsonl(text)
        assert info.value.lineno == bad[0]
    kept, metadata = events_from_jsonl(text, skip_bad_lines=True)
    assert len(kept) == len(good)
    assert metadata.get("skipped_lines", 0) == len(bad)


def test_parser_shares_locations_and_paths():
    events = [
        Enter(0.0, Location(1, 0), "main", ("main",)),
        Enter(1.0, Location(1, 0), "f", ("main", "f")),
        Exit(2.0, Location(1, 0), "f", ("main", "f")),
        Exit(3.0, Location(1, 0), "main", ("main",)),
    ]
    parsed, _ = events_from_jsonl(events_to_jsonl(events))
    assert parsed == events
    assert parsed[0].loc is parsed[3].loc
    assert parsed[1].path is parsed[2].path


def test_parser_keeps_equal_comparing_paths_apart():
    # (1,), (True,) and (1.0,) compare equal but are different paths
    events = [
        Enter(float(i), Location(0, 0), "r", path)
        for i, path in enumerate([(1,), (True,), (1.0,), ("1",)])
    ]
    parsed, _ = events_from_jsonl(events_to_jsonl(events))
    assert [repr(e.path) for e in parsed] == [
        "(1,)", "(True,)", "(1.0,)", "('1',)"
    ]


@codec_settings
@given(events=events_strategy, data=st.data())
def test_reordered_keys_parse_through_the_fallback(events, data):
    lines = []
    expected = []
    for e in events:
        d = e.to_dict()
        keys = data.draw(st.permutations(list(d)))
        line = json.dumps({k: d[k] for k in keys})
        event = _parseable(line)
        if event is not None:
            lines.append(line + "\n")
            expected.append(event)
    parsed, _ = events_from_jsonl(_header_line(None) + "".join(lines))
    assert [repr(e) for e in parsed] == [repr(e) for e in expected]
