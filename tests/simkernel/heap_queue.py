"""Reference pending-event queue for the calendar-queue tests.

One ``heapq`` of ``(time, seq, proc)`` tuples: obviously correct, so
the hypothesis equivalence suite and the end-to-end trace-identity
test compare :class:`repro.simkernel.eventq.CalendarEventQueue`
against it.
"""

from heapq import heappop, heappush
from typing import Optional, Tuple


class HeapEventQueue:
    """The classic single-heap queue the kernel used before."""

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: list[Tuple[float, int, object]] = []

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def distinct_times(self) -> int:
        return len({entry[0] for entry in self._heap})

    def push(self, at: float, seq: int, proc) -> None:
        heappush(self._heap, (at, seq, proc))

    def head(self) -> Optional[Tuple[float, int]]:
        if not self._heap:
            return None
        entry = self._heap[0]
        return entry[0], entry[1]

    def pop(self) -> Tuple[float, int, object]:
        return heappop(self._heap)

    def transfer(self, ready) -> float:
        """Move every entry sharing the earliest timestamp onto ``ready``.

        Same-time heap entries pop in seq order, so this produces the
        exact tuple sequence :meth:`CalendarEventQueue.transfer` does.
        """
        heap = self._heap
        entry = heappop(heap)
        at = entry[0]
        ready.append(entry)
        while heap and heap[0][0] == at:
            ready.append(heappop(heap))
        return at
