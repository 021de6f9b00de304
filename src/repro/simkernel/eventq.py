"""The scheduler's pending-event queue: calendar buckets.

The scheduler orders future events by ``(time, seq)``.
:class:`CalendarEventQueue` is a timestamp-radix bucketed queue.
Events are grouped into per-timestamp *buckets* (slab-allocated flat
``[head, seq0, proc0, seq1, proc1, ...]`` records, recycled through a
free pool so steady-state scheduling allocates no fresh lists), and a
min-heap orders only the *distinct* timestamps.  SPMD programs are
massively time-degenerate -- a barrier or a uniform ``hold`` schedules
every rank for the same instant -- so the heap stays tiny while
buckets absorb the volume: pushing the 1024th rank into an existing
bucket is one dict hit and two appends, not an O(log n)
tuple-comparison sift.  :meth:`transfer` hands a whole bucket to the
scheduler's FIFO run queue in one call (batched dispatch): one heap pop
amortized over every same-time event.

Events are served in exactly ``(time, seq)`` order; the test suite
checks this against a single-``heapq`` reference queue, service order
and whole traces alike.  Within one bucket no explicit sort ever runs:
sequence numbers only grow, so append order *is* ``seq`` order.

A note on numpy: the bucket design was benchmarked against a
numpy-backed timestamp-array variant; per-event ndarray indexing costs
more than CPython's C-level float heap at the queue depths a simulation
sustains, so numpy is used by the microbenchmarks (bulk stream
generation and reference ordering at scale), not by this hot path.
The batching win lives in :meth:`transfer` instead.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Optional, Tuple

__all__ = ["CalendarEventQueue"]

#: retired bucket slabs kept for reuse per queue
_POOL_LIMIT = 256


class CalendarEventQueue:
    """Timestamp-bucketed pending-event queue (see module docstring)."""

    __slots__ = ("_times", "_buckets", "_pool", "_len")

    def __init__(self) -> None:
        #: min-heap of the *distinct* pending timestamps
        self._times: list[float] = []
        #: timestamp -> slab record ``[head, seq0, proc0, seq1, ...]``
        self._buckets: dict[float, list] = {}
        #: retired slabs awaiting reuse
        self._pool: list[list] = []
        self._len = 0

    def __len__(self) -> int:
        return self._len

    @property
    def distinct_times(self) -> int:
        """Number of distinct pending timestamps (the heap's size)."""
        return len(self._times)

    def push(self, at: float, seq: int, proc) -> None:
        bucket = self._buckets.get(at)
        if bucket is None:
            pool = self._pool
            if pool:
                bucket = pool.pop()
                bucket.append(seq)
                bucket.append(proc)
            else:
                bucket = [1, seq, proc]
            self._buckets[at] = bucket
            heappush(self._times, at)
        else:
            bucket.append(seq)
            bucket.append(proc)
        self._len += 1

    def head(self) -> Optional[Tuple[float, int]]:
        """``(time, seq)`` of the earliest entry, or ``None``."""
        if not self._len:
            return None
        at = self._times[0]
        bucket = self._buckets[at]
        return at, bucket[bucket[0]]

    def pop(self) -> Tuple[float, int, object]:
        """Remove and return the earliest ``(time, seq, proc)`` entry."""
        at = self._times[0]
        bucket = self._buckets[at]
        i = bucket[0]
        seq = bucket[i]
        proc = bucket[i + 1]
        i += 2
        if i == len(bucket):
            heappop(self._times)
            del self._buckets[at]
            self._retire(bucket)
        else:
            bucket[0] = i
        self._len -= 1
        return at, seq, proc

    def transfer(self, ready) -> float:
        """Move the entire earliest bucket onto the ``ready`` FIFO.

        Appends ``(time, seq, proc)`` tuples in seq order and returns
        the bucket's timestamp.  The caller must only do this when the
        FIFO holds nothing that should run first -- the scheduler calls
        it with an empty FIFO when advancing the clock.
        """
        at = heappop(self._times)
        bucket = self._buckets.pop(at)
        i = bucket[0]
        n = len(bucket)
        self._len -= (n - i) >> 1
        append = ready.append
        while i < n:
            append((at, bucket[i], bucket[i + 1]))
            i += 2
        self._retire(bucket)
        return at

    def _retire(self, bucket: list) -> None:
        pool = self._pool
        if len(pool) < _POOL_LIMIT:
            bucket.clear()
            bucket.append(1)
            pool.append(bucket)
