"""OpenMP lock API (``omp_init_lock``/``omp_set_lock`` family).

Unlike ``omp critical`` (lexically scoped), locks are objects that can
be shared across regions and acquired in one function and released in
another.  The traced ``omp_lock`` region covers exactly the
acquisition wait, so lock contention is directly measurable.
"""

from __future__ import annotations

from ..simkernel import SimMutex
from ..trace.api import region

#: trace region covering lock-acquisition waits
LOCK_REGION = "omp_lock"


class OmpLock:
    """A simple (non-nestable) OpenMP lock."""

    def __init__(self, name: str = "lock"):
        self.name = name
        self._mutex = SimMutex(name=f"omp_lock:{name}")

    def set(self) -> None:
        """Acquire (``omp_set_lock``); blocks while held elsewhere.

        The blocked interval is traced as an ``omp_lock`` region.
        """
        with region(LOCK_REGION):
            self._mutex.acquire()

    def unset(self) -> None:
        """Release (``omp_unset_lock``); must be held by the caller."""
        self._mutex.release()

    def test(self) -> bool:
        """Try to acquire without blocking (``omp_test_lock``)."""
        if self._mutex.locked:
            return False
        self._mutex.acquire()
        return True

    @property
    def held(self) -> bool:
        return self._mutex.locked

    def __enter__(self) -> "OmpLock":
        self.set()
        return self

    def __exit__(self, *exc) -> None:
        self.unset()
