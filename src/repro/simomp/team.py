"""OpenMP thread teams.

A :class:`Team` is a fork/join group of simulated threads inside one
process (MPI rank or standalone).  Thread 0 runs at the master's trace
location, so call paths nest naturally under the sequential code, and
the master passivates until the join -- matching the OpenMP execution
model where the master *is* thread 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..obs.instruments import omp_metrics
from ..simkernel import SimBarrier, SimMutex, SimProcess, current_process
from ..trace.api import region as traced_region
from ..trace.events import Location


class OmpError(Exception):
    """Misuse of the simulated OpenMP runtime."""


def current_team() -> Optional["Team"]:
    """The team of the calling thread, or ``None`` outside parallel."""
    return current_process().context.get("omp_team")


def require_team() -> "Team":
    """The current team, or :class:`OmpError` outside parallel regions."""
    team = current_team()
    if team is None:
        raise OmpError("this construct requires an active parallel region")
    return team


def omp_get_thread_num() -> int:
    """Thread number within the current team (0 outside parallel)."""
    team = current_team()
    return team.thread_num_of(current_process()) if team else 0


def omp_get_num_threads() -> int:
    """Size of the current team (1 outside parallel)."""
    team = current_team()
    return team.size if team else 1


@dataclass
class _SharedCounter:
    """Shared iteration dispenser for dynamic/guided schedules."""

    next: int = 0


class Team:
    """One active parallel region's thread team."""

    def __init__(
        self,
        sim,
        master: SimProcess,
        size: int,
        team_id: int,
        locations: list[Location],
    ):
        if size < 1:
            raise OmpError("team size must be >= 1")
        self.sim = sim
        self.master = master
        self.size = size
        self.team_id = team_id
        self.locations = locations
        self._barrier = SimBarrier(size, name=f"omp_team{team_id}")
        self._remaining = size
        self.results: list[Any] = [None] * size
        # Per-construct-instance shared state.  All threads execute
        # worksharing constructs in the same order (an OpenMP
        # requirement), so per-thread instance counters agree.
        self._instance_of: dict[int, int] = {}
        self._loop_counters: dict[int, _SharedCounter] = {}
        self._single_claimed: dict[int, int] = {}
        self._reduce_slots: dict[int, list] = {}
        self._critical_mutexes: dict[str, SimMutex] = {}
        #: metrics bundle, or None while observability is disabled
        self._metrics = omp_metrics()

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------

    def thread_num_of(self, proc: SimProcess) -> int:
        num = proc.context.get("omp_thread_num")
        if num is None or proc.context.get("omp_team") is not self:
            raise OmpError(f"{proc.name} is not a member of this team")
        return num

    def _next_instance(self) -> int:
        """Per-thread counter for worksharing construct instances."""
        me = self.thread_num_of(current_process())
        seq = self._instance_of.get(me, 0)
        self._instance_of[me] = seq + 1
        return seq

    # ------------------------------------------------------------------
    # synchronization
    # ------------------------------------------------------------------

    def barrier(self, region: str = "omp_barrier") -> None:
        """Team barrier, traced per thread as ``region``.

        All threads leave at the last arrival time -- the observable
        shape of every OpenMP imbalance property.
        """
        proc = current_process()
        self.thread_num_of(proc)  # membership check
        m = self._metrics
        with traced_region(region):
            if m is not None:
                arrived = proc.sim.now
            self._barrier.wait()
            if m is not None:
                m.barrier_waits.inc()
                m.barrier_wait_seconds.observe(proc.sim.now - arrived)

    def critical(self, name: str = "default") -> SimMutex:
        """The named critical-section mutex (shared per team)."""
        if name not in self._critical_mutexes:
            self._critical_mutexes[name] = SimMutex(
                name=f"omp_critical:{name}"
            )
        return self._critical_mutexes[name]

    def single(self) -> bool:
        """``omp single``: True for the first thread to arrive.

        The implicit barrier must be issued separately (or skipped for
        ``nowait`` semantics) via :meth:`barrier`.
        """
        instance = self._next_instance()
        me = self.thread_num_of(current_process())
        if instance not in self._single_claimed:
            self._single_claimed[instance] = me
            return True
        return False

    def reduce(self, value: Any, op: Callable[[Any, Any], Any]):
        """All-threads reduction; every thread receives the result.

        Deterministic combination order (by thread number) regardless
        of arrival order.
        """
        instance = self._next_instance()
        slots = self._reduce_slots.setdefault(
            instance, [None] * self.size
        )
        me = self.thread_num_of(current_process())
        slots[me] = value
        self.barrier(region="omp_ibarrier_reduce")
        acc = slots[0]
        for contrib in slots[1:]:
            acc = op(acc, contrib)
        return acc

    # ------------------------------------------------------------------
    # worksharing loops
    # ------------------------------------------------------------------

    def loop_chunks(
        self,
        iterations: int,
        schedule: str = "static",
        chunk: Optional[int] = None,
    ):
        """Yield this thread's iteration indices for an ``omp for``.

        Schedules:

        * ``static`` without chunk: contiguous blocks, remainder spread
          over the first threads (the usual static partition),
        * ``static`` with chunk: round-robin chunks,
        * ``dynamic``: threads grab ``chunk`` (default 1) iterations at
          a time from a shared counter,
        * ``guided``: grabbed chunk size is ``remaining / team size``,
          bounded below by ``chunk`` (default 1).
        """
        if iterations < 0:
            raise OmpError("iteration count must be non-negative")
        if schedule not in ("static", "dynamic", "guided"):
            raise OmpError(f"unknown schedule {schedule!r}")
        me = self.thread_num_of(current_process())
        sz = self.size
        if schedule == "static":
            if chunk is None:
                base, extra = divmod(iterations, sz)
                lo = me * base + min(me, extra)
                hi = lo + base + (1 if me < extra else 0)
                yield from range(lo, hi)
            else:
                if chunk < 1:
                    raise OmpError("chunk must be >= 1")
                for start in range(me * chunk, iterations, sz * chunk):
                    yield from range(
                        start, min(start + chunk, iterations)
                    )
            return
        # dynamic / guided share the grab-from-counter structure
        instance = self._next_instance()
        counter = self._loop_counters.setdefault(
            instance, _SharedCounter()
        )
        min_chunk = chunk if chunk is not None else 1
        if min_chunk < 1:
            raise OmpError("chunk must be >= 1")
        while counter.next < iterations:
            lo = counter.next
            if schedule == "dynamic":
                grab = min_chunk
            else:  # guided
                remaining = iterations - lo
                grab = max(min_chunk, remaining // sz)
            hi = min(lo + grab, iterations)
            counter.next = hi
            yield from range(lo, hi)

    # ------------------------------------------------------------------
    # join bookkeeping (used by the region machinery)
    # ------------------------------------------------------------------

    def _thread_done(self, thread_num: int, result: Any) -> None:
        self.results[thread_num] = result
        self._remaining -= 1
        if self._remaining == 0:
            self.sim.activate(self.master)
