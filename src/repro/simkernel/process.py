"""Simulated processes on pooled worker threads.

Each :class:`SimProcess` runs on an OS thread, but at most one thread in
a simulation ever runs at a time: a process runs until it performs a
blocking kernel call (``hold``, ``passivate``, a sync-primitive wait),
at which point control transfers to the next runnable process.  This
gives coroutine-like determinism while letting user code -- the ATS
property functions -- be written in the natural blocking style of the
paper's C API, with no ``yield``/``await`` noise.

Two mechanisms keep the handoff cheap:

* **Worker pooling.**  Threads come from a process-global
  :class:`WorkerPool`: a finished (or killed, or crashed) process's
  thread parks itself and is reused by the next process, across
  simulations.  Fork/join-heavy workloads -- an OpenMP team per
  parallel region per rank -- would otherwise spawn thousands of
  short-lived OS threads.
* **Direct chaining.**  When a process blocks, its own thread runs the
  scheduler's dispatch step and wakes the next process's worker
  directly (see :meth:`Simulator._chain_from`), so a dispatch costs one
  OS context switch, not a round trip through a scheduler thread -- and
  zero switches when a finished process's thread is immediately reused
  for the next dispatched one (the LIFO pool makes that the common
  fork/join case).  Handoffs use raw ``threading.Lock`` objects rather
  than ``threading.Semaphore``: transfers alternate strictly, so a
  binary lock suffices, and the C-level lock is an order of magnitude
  cheaper than the pure-Python semaphore on this hot path.
"""

from __future__ import annotations

import enum
import os
import threading
from typing import TYPE_CHECKING, Any, Callable, Optional

from .errors import NotInProcessError, ProcessKilled

if TYPE_CHECKING:  # pragma: no cover
    from .scheduler import Simulator


class ProcState(enum.Enum):
    """Lifecycle states of a simulated process."""

    CREATED = "created"       # spawned, no worker claimed yet
    SCHEDULED = "scheduled"   # in the event queue, will run at a known time
    RUNNING = "running"       # currently executing (exactly one at a time)
    PASSIVE = "passive"       # blocked, waiting for an activate()
    FINISHED = "finished"     # body returned normally
    FAILED = "failed"         # body raised an exception
    KILLED = "killed"         # torn down by the simulator


_tls = threading.local()


def current_process() -> "SimProcess":
    """Return the :class:`SimProcess` executing on the calling thread.

    Raises :class:`NotInProcessError` when called from outside a
    simulation (e.g. from the scheduler thread or plain user code).
    """
    proc = getattr(_tls, "process", None)
    if proc is None:
        raise NotInProcessError(
            "this operation is only valid inside a simulated process"
        )
    return proc


def maybe_current_process() -> Optional["SimProcess"]:
    """Like :func:`current_process` but returns ``None`` outside processes."""
    return getattr(_tls, "process", None)


class _Worker:
    """A pooled OS thread that runs process bodies one after another.

    ``_resume`` implements the handoff: whoever dispatches this
    worker's process releases it; the worker blocks on it between
    tasks and while its process is switched out.  ``_yielded`` is only
    used for the teardown handshake, where the killing thread must wait
    until the process has unwound off this thread.  Both start held.
    """

    __slots__ = ("pool", "task", "_resume", "_yielded", "_thread")

    def __init__(self, pool: "WorkerPool"):
        self.pool = pool
        self.task: Optional["SimProcess"] = None
        self._resume = threading.Lock()
        self._resume.acquire()
        self._yielded = threading.Lock()
        self._yielded.acquire()
        self._thread = threading.Thread(
            target=self._loop, name="sim-worker", daemon=True
        )
        self._thread.start()

    def _loop(self) -> None:
        resume = self._resume
        pool = self.pool
        while True:
            resume.acquire()
            proc = self.task
            if proc is None:  # shutdown sentinel
                return
            proc._run(self)
            self.task = None
            sim = proc.sim
            # Park *before* doing anything else: every other simulation
            # thread is blocked right now, so the pool cannot be raced,
            # and the next dispatch can reclaim this very thread (LIFO)
            # for a zero-switch continuation.
            kept = pool._park(self)
            if sim._tearing_down:
                # Killed during teardown: handshake with the killer.
                # Checked first -- whatever state the unwind left the
                # process in, the killer is blocked on this lock.
                self._yielded.release()
            elif proc.state is ProcState.FAILED:
                sim._report_failure(proc)
            else:
                sim._dispatch_onward()
            if not kept:
                return


class WorkerPool:
    """Parked worker threads shared by all simulators in this process.

    Pool operations need no lock: workers only park while every other
    simulation thread is blocked, and ``list.append``/``list.pop`` are
    atomic under the GIL for the (never observed in practice) case of
    concurrent simulators on separate OS threads.
    """

    def __init__(self, max_parked: int = 1024):
        self.max_parked = max_parked
        self._parked: list[_Worker] = []
        #: total workers ever created; a reuse diagnostic for tests
        #: and benchmarks (created << processes means the pool works).
        self.created = 0
        #: dispatches served by recycling a parked worker; together
        #: with ``created`` this is harvested into the metrics registry
        #: at collect time (no registry calls on this path).
        self.reused = 0

    def _obtain(self, proc: "SimProcess") -> _Worker:
        try:
            worker = self._parked.pop()
            self.reused += 1
        except IndexError:
            self.created += 1
            worker = _Worker(self)
        worker.task = proc
        return worker

    def _park(self, worker: _Worker) -> bool:
        if len(self._parked) < self.max_parked:
            self._parked.append(worker)
            return True
        return False

    @property
    def parked(self) -> int:
        """Number of currently parked (idle, reusable) workers."""
        return len(self._parked)

    def drain(self) -> None:
        """Shut down all parked workers (test isolation helper)."""
        while self._parked:
            worker = self._parked.pop()
            worker.task = None
            worker._resume.release()
            worker._thread.join()


#: the process-global pool; ``worker_pool()`` is the public accessor.
_pool = WorkerPool()


def _reset_pool_after_fork() -> None:
    """Discard inherited pool state in a forked child.

    Parked workers are OS threads, and threads do not survive ``fork``:
    the child inherits ``_Worker`` objects whose threads no longer
    exist, so releasing their ``_resume`` locks would wake nobody and
    the first dispatch would hang forever.  Reusing the counters would
    likewise double-count parent history in the child's metrics delta.
    """
    _pool._parked.clear()
    _pool.created = 0
    _pool.reused = 0


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX-only guard
    os.register_at_fork(after_in_child=_reset_pool_after_fork)


def worker_pool() -> WorkerPool:
    """The global worker pool (diagnostics / tests)."""
    return _pool


class SimProcess:
    """One simulated locus of execution (an MPI rank, an OpenMP thread...).

    Created via :meth:`repro.simkernel.Simulator.spawn`; not instantiated
    directly by user code.  Creating a process is cheap: a worker thread
    is claimed from the pool only at first dispatch.
    """

    __slots__ = (
        "sim", "name", "pid", "_fn", "_args", "_kwargs", "state",
        "result", "exception", "waiting_on", "context",
        "_kill_requested", "_worker", "_started",
    )

    def __init__(
        self,
        sim: "Simulator",
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        name: str,
        pid: int,
    ):
        self.sim = sim
        self.name = name
        self.pid = pid
        self._fn = fn
        self._args = args
        self._kwargs = kwargs
        self.state = ProcState.CREATED
        self.result: Any = None
        self.exception: BaseException | None = None
        #: what the process is blocked on; either a plain string or a
        #: lazy ``(format, *args)`` tuple -- see :meth:`waiting_reason`.
        #: Kept lazy so the hot path never builds f-strings.
        self.waiting_on: Any = ""
        #: arbitrary per-process storage used by higher layers (MPI rank,
        #: OpenMP team bindings, trace location, RNG stream ...).
        self.context: dict[str, Any] = {}
        self._kill_requested = False
        self._worker: Optional[_Worker] = None
        self._started = False

    # ------------------------------------------------------------------
    # worker-thread-side machinery
    # ------------------------------------------------------------------

    def _run(self, worker: _Worker) -> None:
        """Execute the body on ``worker``'s thread (first dispatch)."""
        _tls.process = self
        try:
            if self._kill_requested:
                self.state = ProcState.KILLED
                return
            try:
                self.result = self._fn(*self._args, **self._kwargs)
                self.state = ProcState.FINISHED
            except ProcessKilled:
                self.state = ProcState.KILLED
            except BaseException as exc:  # noqa: BLE001 - report any crash
                if self._kill_requested:
                    # Collateral of the forced unwind: a finally block
                    # tripped over the half-torn-down runtime.  The kill
                    # still succeeded; reporting this as a crash would
                    # desync the teardown handshake.
                    self.state = ProcState.KILLED
                else:
                    self.exception = exc
                    self.state = ProcState.FAILED
        finally:
            _tls.process = None
            self._worker = None

    def _switch_out(self) -> None:
        """Hand control to the next runnable process; return when resumed.

        Must only be called from the process's own worker thread.  All
        shared simulator state must be updated *before* calling, because
        the next process (possibly on another thread) runs as soon as
        the handoff happens.
        """
        if self._kill_requested:
            # Re-entry during the forced unwind (a finally block calling
            # back into the scheduler): do not dispatch anything.
            raise ProcessKilled()
        if not self.sim._chain_from(self):
            self._worker._resume.acquire()
        if self._kill_requested:
            raise ProcessKilled()

    # ------------------------------------------------------------------
    # dispatcher-side machinery
    # ------------------------------------------------------------------

    def _transfer_in(self) -> None:
        """Wake this process's worker (claiming one at first dispatch).

        Called by whichever thread performed the dispatch step -- the
        thread of a process that just blocked or finished, or the main
        thread starting a run.  The caller blocks (or parks) right
        after; it must not touch simulator state once this returns.
        """
        self.state = ProcState.RUNNING
        if not self._started:
            self._started = True
            self._worker = _pool._obtain(self)
        self._worker._resume.release()

    def _teardown(self) -> None:
        """Force the process off its worker thread (teardown path)."""
        if self.state in (
            ProcState.FINISHED,
            ProcState.FAILED,
            ProcState.KILLED,
        ):
            return
        self._kill_requested = True
        if not self._started:
            # Never dispatched; no worker to unwind.
            self.state = ProcState.KILLED
            return
        worker = self._worker
        if worker is None:  # pragma: no cover - defensive
            return
        worker._resume.release()
        worker._yielded.acquire()

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def waiting_reason(self) -> str:
        """Human-readable form of :attr:`waiting_on` (lazily formatted)."""
        reason = self.waiting_on
        if type(reason) is tuple:
            return reason[0] % reason[1:]
        return reason

    @property
    def alive(self) -> bool:
        """True while the process has not finished, failed or been killed."""
        return self.state in (
            ProcState.CREATED,
            ProcState.SCHEDULED,
            ProcState.RUNNING,
            ProcState.PASSIVE,
        )

    def __repr__(self) -> str:
        return f"<SimProcess {self.name} pid={self.pid} {self.state.value}>"


# ----------------------------------------------------------------------
# host-side tasks on the pooled workers
# ----------------------------------------------------------------------

class _HostTask:
    """A plain callable dressed as a process for the worker loop.

    Unlike a :class:`SimProcess` it never touches virtual time, never
    blocks on kernel primitives and does not publish itself as the
    thread's current process -- it is ordinary host-side work (a
    service job, for instance) borrowing a pooled OS thread.
    """

    __slots__ = ("sim", "_fn", "result", "exception", "state")

    def __init__(self, batch: "_CallbackBatch", fn: Callable[[], Any]):
        self.sim = batch
        self._fn = fn
        self.result: Any = None
        self.exception: BaseException | None = None
        self.state = ProcState.CREATED

    def _run(self, worker: _Worker) -> None:
        try:
            self.result = self._fn()
            self.state = ProcState.FINISHED
        except BaseException as exc:  # noqa: BLE001 - handed to on_done
            self.exception = exc
            self.state = ProcState.FAILED


class _CallbackBatch:
    """Stands in for a ``Simulator`` for one fire-and-forget host task.

    A finished task's worker calls ``sim._dispatch_onward()`` (or
    ``sim._report_failure()`` for a crashed one); both invoke a
    caller-supplied callback **on the worker thread** -- the hook
    :func:`submit_host_task` builds on to bridge pooled workers to
    event loops (the analysis service resolves asyncio futures from the
    callback via ``loop.call_soon_threadsafe``).  ``_tearing_down`` is
    always False: host tasks are never force-killed.
    """

    __slots__ = ("_task", "_on_done")

    _tearing_down = False

    def __init__(self, on_done: Callable[["_HostTask"], None]) -> None:
        self._task: Optional["_HostTask"] = None
        self._on_done = on_done

    def _dispatch_onward(self) -> None:
        self._on_done(self._task)

    def _report_failure(self, task: "_HostTask") -> None:
        self._on_done(task)


def submit_host_task(
    fn: Callable[[], Any],
    on_done: Callable[["_HostTask"], None],
) -> "_HostTask":
    """Run one host-side callable on a pooled worker, asynchronously.

    The returned task's ``result``/``exception``/``state`` fields are
    only meaningful once ``on_done(task)`` has fired; the callback runs
    on the worker thread immediately after the task body returns (or
    raises), after the worker has re-parked itself.  Callbacks must be
    quick and must not raise -- an exception would kill the pooled
    worker's loop.  Event-loop callers should do nothing but hand the
    task back to their loop (``loop.call_soon_threadsafe``).

    This must not be called from inside a simulated process, and the
    work runs under the GIL -- it overlaps blocking I/O, not pure-Python
    compute.
    """
    if maybe_current_process() is not None:
        raise NotInProcessError(
            "submit_host_task cannot be used from inside a simulation"
        )
    batch = _CallbackBatch(on_done)
    task = _HostTask(batch, fn)
    batch._task = task
    task.state = ProcState.RUNNING
    worker = _pool._obtain(task)
    worker._resume.release()
    return task
