"""Tests for the trace recorder, event model and call paths."""

import pytest

from repro.trace import (
    CollExit,
    Enter,
    Exit,
    Location,
    Recv,
    Send,
    TraceError,
    TraceRecorder,
    event_from_dict,
)


L0 = Location(0, 0)
L1 = Location(1, 0)


def test_enter_exit_builds_call_paths():
    rec = TraceRecorder()
    rec.enter(0.0, L0, "main")
    rec.enter(1.0, L0, "phase")
    rec.enter(2.0, L0, "MPI_Send")
    assert rec.path_of(L0) == ("main", "phase", "MPI_Send")
    rec.exit(3.0, L0, "MPI_Send")
    rec.exit(4.0, L0, "phase")
    assert rec.path_of(L0) == ("main",)
    rec.exit(5.0, L0, "main")
    enters = [e for e in rec.events if isinstance(e, Enter)]
    assert enters[2].path == ("main", "phase", "MPI_Send")


def test_stacks_are_per_location():
    rec = TraceRecorder()
    rec.enter(0.0, L0, "a")
    rec.enter(0.0, L1, "b")
    assert rec.path_of(L0) == ("a",)
    assert rec.path_of(L1) == ("b",)


def test_unbalanced_exit_raises():
    rec = TraceRecorder()
    rec.enter(0.0, L0, "a")
    with pytest.raises(TraceError):
        rec.exit(1.0, L0, "wrong")
    with pytest.raises(TraceError):
        rec.exit(1.0, L1, "a")


def test_finish_detects_dangling_regions():
    rec = TraceRecorder()
    rec.enter(0.0, L0, "a")
    with pytest.raises(TraceError, match="unbalanced"):
        rec.finish()


def test_finish_passes_when_balanced():
    rec = TraceRecorder()
    rec.enter(0.0, L0, "a")
    rec.exit(1.0, L0, "a")
    rec.finish()


def test_send_recv_events_capture_envelope():
    rec = TraceRecorder()
    rec.enter(0.0, L0, "main")
    msg = rec.new_msg_id()
    rec.send(1.0, L0, peer=1, tag=7, comm_id=3, nbytes=64, msg_id=msg)
    rec.recv(
        2.0, L1, peer=0, tag=7, comm_id=3, nbytes=64, msg_id=msg,
        post_time=0.5,
    )
    send = next(e for e in rec.events if isinstance(e, Send))
    recv = next(e for e in rec.events if isinstance(e, Recv))
    assert send.msg_id == recv.msg_id == msg
    assert send.path == ("main",)
    assert recv.post_time == 0.5
    rec.exit(3.0, L0, "main")


def test_msg_ids_are_unique():
    rec = TraceRecorder()
    ids = {rec.new_msg_id() for _ in range(100)}
    assert len(ids) == 100


def test_coll_exit_event_carries_metadata():
    rec = TraceRecorder()
    rec.coll_exit(
        5.0, L0, op="MPI_Bcast", comm_id=2, instance=4, root=1,
        enter_time=3.0, bytes_sent=128,
    )
    (event,) = rec.events
    assert isinstance(event, CollExit)
    assert event.op == "MPI_Bcast"
    assert event.enter_time == 3.0
    assert event.root == 1


def test_comm_registry():
    rec = TraceRecorder()
    rec.register_comm(5, [2, 3, 4])
    assert rec.comm_registry[5] == (2, 3, 4)


def test_locations_sorted():
    rec = TraceRecorder()
    rec.enter(0.0, L1, "a")
    rec.enter(0.0, L0, "b")
    assert rec.locations() == [L0, L1]


def test_negative_intrusion_rejected():
    with pytest.raises(ValueError):
        TraceRecorder(intrusion_per_event=-1.0)


# ----------------------------------------------------------------------
# event serialization round trips
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "event",
    [
        Enter(1.5, L0, "region", ("a", "region")),
        Exit(2.5, L1, "region", ("a", "region")),
        Send(1.0, L0, peer=3, tag=9, comm_id=1, nbytes=44, msg_id=7,
             path=("m",), internal=True),
        Recv(2.0, L1, peer=0, tag=9, comm_id=1, nbytes=44, msg_id=7,
             post_time=1.5, path=("m",)),
        CollExit(3.0, L0, op="MPI_Barrier", comm_id=0, instance=2,
                 root=-1, enter_time=2.0, path=("m",)),
    ],
)
def test_event_dict_round_trip(event):
    assert event_from_dict(event.to_dict()) == event


def test_event_from_dict_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown event kind"):
        event_from_dict({"kind": "bogus", "time": 0.0, "loc": "0.0"})


def test_location_parse_and_str_round_trip():
    loc = Location(7, 3)
    assert Location.parse(str(loc)) == loc
    assert Location.parse("4") == Location(4, 0)
