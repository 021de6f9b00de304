"""The calendar event queue: ordering equivalence and fast paths.

The scheduler's correctness contract is exact ``(time, seq)`` service
order; the calendar queue must be observationally identical to the
reference heap queue under any push/pop interleaving, and traces must
stay bit-identical per seed whichever queue a simulator uses.
"""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import get_property
from repro.simkernel import scheduler
from repro.simkernel.eventq import CalendarEventQueue
from repro.trace.io import events_to_jsonl

from .heap_queue import HeapEventQueue

# ----------------------------------------------------------------------
# direct queue equivalence
# ----------------------------------------------------------------------

#: few distinct timestamps + many events = heavy same-time degeneracy,
#: the SPMD shape the calendar queue is built for
_times = st.floats(
    min_value=0.0, max_value=4.0, allow_nan=False, allow_infinity=False
).map(lambda t: round(t, 1))


@st.composite
def _event_streams(draw):
    """A scheduling script: pushes (with unique growing seqs) and pops."""
    n = draw(st.integers(min_value=1, max_value=120))
    ops = []
    seq = 0
    live = 0
    for _ in range(n):
        if live and draw(st.booleans()):
            ops.append(("pop",))
            live -= 1
        else:
            ops.append(("push", draw(_times), seq))
            seq += 1
            live += 1
    return ops


@given(_event_streams())
@settings(max_examples=200, deadline=None)
def test_calendar_matches_heap_order(ops):
    cal, heap = CalendarEventQueue(), HeapEventQueue()
    for op in ops:
        if op[0] == "push":
            _, at, seq = op
            cal.push(at, seq, f"p{seq}")
            heap.push(at, seq, f"p{seq}")
        else:
            assert cal.pop() == heap.pop()
        assert len(cal) == len(heap)
        assert cal.head() == heap.head()
    # drain whatever remains; service order must agree to the end
    while len(heap):
        assert cal.pop() == heap.pop()
    assert len(cal) == 0


@given(_event_streams())
@settings(max_examples=100, deadline=None)
def test_calendar_transfer_matches_heap_transfer(ops):
    cal, heap = CalendarEventQueue(), HeapEventQueue()
    cal_ready, heap_ready = deque(), deque()
    for op in ops:
        if op[0] == "push":
            _, at, seq = op
            cal.push(at, seq, f"p{seq}")
            heap.push(at, seq, f"p{seq}")
        elif len(cal):
            # whole-bucket transfer replaces pop when the FIFO is empty
            assert cal.transfer(cal_ready) == heap.transfer(heap_ready)
            assert list(cal_ready) == list(heap_ready)
            assert len(cal) == len(heap)
    while len(cal):
        assert cal.transfer(cal_ready) == heap.transfer(heap_ready)
    assert list(cal_ready) == list(heap_ready)


def test_same_timestamp_bucket_is_fifo():
    """Events at one timestamp serve strictly in push (= seq) order."""
    q = CalendarEventQueue()
    for seq in range(100):
        q.push(2.5, seq, f"p{seq}")
    assert q.distinct_times == 1
    assert [q.pop()[1] for _ in range(100)] == list(range(100))


def test_transfer_hands_over_whole_earliest_bucket():
    q = CalendarEventQueue()
    for seq in range(5):
        q.push(1.0, seq, f"a{seq}")
    q.push(2.0, 5, "b")
    ready = deque()
    assert q.transfer(ready) == 1.0
    assert [entry[1] for entry in ready] == [0, 1, 2, 3, 4]
    assert len(q) == 1
    assert q.head() == (2.0, 5)


def test_bucket_slabs_are_recycled():
    q = CalendarEventQueue()
    for round_no in range(3):
        for seq in range(4):
            q.push(float(round_no), seq, "p")
        for _ in range(4):
            q.pop()
    assert len(q._pool) >= 1
    # recycled slabs must come back clean
    q.push(9.0, 0, "x")
    assert q.pop() == (9.0, 0, "x")


def test_partially_popped_bucket_then_transfer():
    """A bucket drained partway by pop() transfers only its remainder."""
    q = CalendarEventQueue()
    for seq in range(4):
        q.push(1.0, seq, f"p{seq}")
    assert q.pop()[1] == 0
    ready = deque()
    assert q.transfer(ready) == 1.0
    assert [entry[1] for entry in ready] == [1, 2, 3]
    assert len(q) == 0


# ----------------------------------------------------------------------
# end-to-end: traces bit-identical across schedulers
# ----------------------------------------------------------------------

def _trace_text(name: str, queue_class, monkeypatch) -> str:
    monkeypatch.setattr(scheduler, "CalendarEventQueue", queue_class)
    run = get_property(name).run(size=8, num_threads=3, seed=7)
    return events_to_jsonl(run.events, metadata={"program": name})


@pytest.mark.parametrize(
    "name",
    ["imbalance_at_mpi_barrier", "hybrid_imbalance_then_barrier"],
)
def test_traces_bit_identical_across_schedulers(name, monkeypatch):
    heap = _trace_text(name, HeapEventQueue, monkeypatch)
    calendar = _trace_text(name, CalendarEventQueue, monkeypatch)
    assert heap == calendar


def test_same_timestamp_fifo_fast_path_regression():
    """hold(0) wakeups at the current instant bypass the event queue.

    The scheduler routes same-time wakeups straight onto its ready
    FIFO; the pending queue must see none of them.
    """
    from repro.simkernel import Simulator, hold

    sim = Simulator()
    order = []

    def body(i):
        for step in range(3):
            hold(0.0)
            order.append((step, i))

    for i in range(4):
        sim.spawn(body, i)
    sim.run()
    assert sim._eventq.distinct_times == 0
    assert len(sim._eventq) == 0
    # spawn order is preserved within every same-time step
    assert order == [(s, i) for s in range(3) for i in range(4)]
