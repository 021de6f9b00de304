"""OpenMP constructs: parallel regions, worksharing, critical sections.

``omp_parallel(body, ...)`` is the ``#pragma omp parallel`` equivalent:
it forks a team, runs ``body`` on every thread, executes the implicit
barrier at region end and joins.  The other helpers mirror their
pragma counterparts and are valid only inside a region.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

from ..simkernel import current_process
from ..trace.api import bind_instrumentation, current_instrumentation, region
from ..trace.events import Location
from .team import OmpError, Team, current_team, require_team

#: trace region names for the implicit barriers of each construct;
#: the analyzer distinguishes the OpenMP imbalance properties by them.
IBARRIER_PARALLEL = "omp_ibarrier_parallel"
IBARRIER_FOR = "omp_ibarrier_for"
IBARRIER_SINGLE = "omp_ibarrier_single"
IBARRIER_SECTIONS = "omp_ibarrier_sections"
EXPLICIT_BARRIER = "omp_barrier"


def _alloc_thread_ids(sim, rank: int, count: int) -> list[int]:
    """Allocate ``count`` fresh rank-local thread ids (for nesting)."""
    pool = getattr(sim, "_omp_tid_pool", None)
    if pool is None:
        pool = {}
        sim._omp_tid_pool = pool
    start = pool.get(rank, 1)
    pool[rank] = start + count
    return list(range(start, start + count))


def _next_team_id(sim) -> int:
    tid = getattr(sim, "_omp_team_counter", 0)
    sim._omp_team_counter = tid + 1
    return tid


def omp_parallel(
    body: Callable[..., Any],
    *args: Any,
    num_threads: Optional[int] = None,
    **kwargs: Any,
) -> list:
    """Fork a parallel region running ``body(*args, **kwargs)`` per thread.

    Returns the list of per-thread return values (indexed by thread
    number).  ``num_threads`` defaults to the process's
    ``omp_default_threads`` context entry (set by :func:`run_omp` /
    hybrid launchers), falling back to 4.
    """
    master = current_process()
    sim = master.sim
    n = (
        num_threads
        if num_threads is not None
        else master.context.get("omp_default_threads", 4)
    )
    if n < 1:
        raise OmpError(f"num_threads must be >= 1, got {n}")
    rec, master_loc = current_instrumentation()
    rank = master.context.get("mpi_rank", 0)
    team_id = _next_team_id(sim)
    # Thread 0 inherits the master's location; others get fresh ids.
    extra = _alloc_thread_ids(sim, rank, n - 1)
    locations = [master_loc] + [Location(rank, t) for t in extra]
    team = Team(sim, master, n, team_id, locations)
    if team._metrics is not None:
        team._metrics.forks.inc()
    if rec is not None:
        rec.fork(sim.now, master_loc, team_size=n, team_id=team_id)
        # Worker threads continue the master's call path (thread 0
        # shares the master's location/stack and needs no seeding).
        master_path = rec.path_of(master_loc)
        for loc in locations[1:]:
            rec.seed_base(loc, master_path)

    def thread_body(thread_num: int) -> Any:
        proc = current_process()
        # Inherit the master's execution context, then overlay team
        # membership and the thread's own trace location.
        proc.context.update(master.context)
        proc.context["omp_team"] = team
        proc.context["omp_thread_num"] = thread_num
        # Each thread gets its own RNG stream -- the paper's lock-free
        # parallel generator requirement (section 3.1.1).
        master_rng = master.context.get("rng")
        if master_rng is not None:
            proc.context["rng"] = master_rng.spawn(1000 + thread_num)
        bind_instrumentation(rec, locations[thread_num])
        with region("omp_parallel"):
            try:
                result = body(*args, **kwargs)
            finally:
                # Implicit barrier at region end (no nowait in OpenMP).
                team.barrier(region=IBARRIER_PARALLEL)
        team._thread_done(thread_num, result)
        return result

    for thread_num in range(n):
        sim.spawn(
            thread_body,
            thread_num,
            name=f"{master.name}.t{team_id}.{thread_num}",
        )
    sim.passivate(f"omp_join(team{team_id})")
    if team._metrics is not None:
        team._metrics.joins.inc()
    if rec is not None:
        rec.join(sim.now, master_loc, team_id=team_id)
    return list(team.results)


def omp_barrier() -> None:
    """Explicit ``#pragma omp barrier``."""
    require_team().barrier(region=EXPLICIT_BARRIER)


def omp_for(
    iterations: int,
    body: Callable[[int], Any],
    schedule: str = "static",
    chunk: Optional[int] = None,
    nowait: bool = False,
) -> None:
    """``#pragma omp for``: workshare ``body(i)`` over the team.

    Traced as an ``omp_for`` region per thread, with the implicit
    end-of-loop barrier unless ``nowait``.
    """
    team = require_team()
    with region("omp_for"):
        for i in team.loop_chunks(iterations, schedule, chunk):
            body(i)
        if not nowait:
            team.barrier(region=IBARRIER_FOR)


def omp_sections(
    bodies: list[Callable[[], Any]], nowait: bool = False
) -> None:
    """``#pragma omp sections``: distribute section bodies dynamically."""
    team = require_team()
    with region("omp_sections"):
        for i in team.loop_chunks(len(bodies), schedule="dynamic"):
            bodies[i]()
        if not nowait:
            team.barrier(region=IBARRIER_SECTIONS)


@contextmanager
def omp_critical(name: str = "default") -> Iterator[None]:
    """``#pragma omp critical``: named mutual exclusion, traced.

    The traced region covers lock acquisition, so contention shows up
    as time inside ``omp_critical`` -- the critical-section contention
    property.
    """
    team = require_team()
    with region("omp_critical"):
        mutex = team.critical(name)
        mutex.acquire()
        try:
            yield
        finally:
            mutex.release()


@contextmanager
def omp_single(nowait: bool = False) -> Iterator[bool]:
    """``#pragma omp single``: the body runs on the first-arriving thread.

    Yields True on the executing thread, False elsewhere; all threads
    synchronize at the construct's implicit barrier unless ``nowait``.
    """
    team = require_team()
    chosen = team.single()
    try:
        yield chosen
    finally:
        if not nowait:
            team.barrier(region=IBARRIER_SINGLE)


def omp_master() -> bool:
    """``#pragma omp master``: True on thread 0 (no implied barrier)."""
    team = require_team()
    return team.thread_num_of(current_process()) == 0
