"""The deterministic discrete-event scheduler.

A :class:`Simulator` owns a virtual clock and an event queue of
``(time, sequence, process)`` entries.  Exactly one simulated process
runs at any moment; ties in time are broken by scheduling order, so a
whole simulation is a deterministic function of the program and its
seeds.  Determinism is essential for a *test suite*: the same ATS
program must exhibit the same performance property trace on every run.

The dispatch step (pop the earliest entry, advance the clock, resume
the process) is not owned by a scheduler thread.  It runs on whichever
thread just gave up control: a blocking process dispatches its
successor directly (one context switch instead of a round trip through
``run()``), and ``run()`` on the main thread only seeds the first
dispatch, then sleeps until the chain reports back -- completion,
deadlock, a crash, the ``until`` horizon or the dispatch limit.

Three fast paths keep dispatching cheap at scale:

* events scheduled for the *current* timestamp (``hold(0)``, immediate
  ``activate`` -- the bulk of sync-primitive traffic) go to a FIFO run
  queue instead of the pending-event queue; because sequence numbers
  only grow, FIFO order *is* ``(time, seq)`` order for same-time
  entries, so the merge with the pending queue preserves the exact
  event ordering of a heap-only scheduler (traces are bit-identical),
* *future* events live in a calendar queue bucketed by exact timestamp
  (:mod:`repro.simkernel.eventq`): SPMD programs schedule whole rank
  cohorts for the same instant, so pushes are O(1) bucket appends and
  advancing the clock transfers an entire bucket onto the FIFO in one
  batched step instead of popping a heap once per rank,
* blocked-reason strings are stored lazily (see
  :meth:`SimProcess.waiting_reason`), so no f-string is built per hold.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Optional

from ..obs.instruments import kernel_metrics
from .eventq import CalendarEventQueue
from .errors import (
    DeadlockError,
    HangError,
    NotInProcessError,
    SimError,
    SimulationCrashed,
)
from .process import ProcState, SimProcess, current_process, maybe_current_process
from .rng import Lcg64

#: wake reasons the dispatch chain reports back to ``run()``
_IDLE = "idle"
_UNTIL = "until"
_FAILED = "failed"
_LIMIT = "limit"
_BUDGET = "budget"


class Simulator:
    """A discrete-event simulation run.

    Typical use::

        sim = Simulator()
        sim.spawn(body, arg1, name="rank0")
        sim.run()

    Inside ``body``, processes advance virtual time with
    :meth:`hold`, block with :meth:`passivate` and wake each other with
    :meth:`activate` -- or use the higher-level primitives in
    :mod:`repro.simkernel.sync`.
    """

    def __init__(self, seed: int = 0):
        #: Current virtual time in seconds.  A plain attribute, not a
        #: property: it is read on every scheduling call and every
        #: recorded event, where descriptor dispatch is measurable.
        self.now = 0.0
        #: pending *future* events, ordered by (time, seq)
        self._eventq = CalendarEventQueue()
        #: same-timestamp FIFO run queue (the queue-bypass fast path);
        #: also receives whole buckets via batched transfer
        self._ready: deque[tuple[float, int, SimProcess]] = deque()
        self._seq = 0
        self._pid = 0
        self.processes: list[SimProcess] = []
        self.rng = Lcg64(seed)
        self._running = False
        self._finished = False
        self._tearing_down = False
        self._until: float | None = None
        self._max_dispatches: int | None = None
        #: which wake reason the time horizon maps to: _UNTIL for a
        #: plain ``until`` stop, _BUDGET when a virtual-time budget is
        #: the binding limit.  One attribute instead of a second hot-path
        #: comparison in ``_next_runnable``.
        self._horizon_reason = _UNTIL
        self._budget: float | None = None
        # run() blocks on this (pre-held) lock while the dispatch chain
        # runs; the chain releases it exactly once, with _wake_reason
        # (and _failed_proc for crashes) set beforehand.
        self._main_wake = threading.Lock()
        self._main_wake.acquire()
        self._wake_reason: str | None = None
        self._failed_proc: SimProcess | None = None
        #: monotonically increasing count of process dispatches; a cheap
        #: proxy for "simulation effort" used by overhead benchmarks.
        self.dispatch_count = 0
        #: metrics bundle, or None while observability is disabled --
        #: the dispatch loop guards on it with a single branch.
        self._metrics = kernel_metrics()
        #: fault injector (see :mod:`repro.faults`), or None for the
        #: clean path.  Consulted only in :meth:`hold`, where positive
        #: delays are the semantic "work/communication takes time"
        #: statements -- zero-delay scheduling (sync primitives) stays
        #: untouched so perturbations never change program structure,
        #: only timing.
        self.fault_injector = None

    # ------------------------------------------------------------------
    # process management
    # ------------------------------------------------------------------

    def spawn(
        self,
        fn: Callable[..., Any],
        *args: Any,
        name: str | None = None,
        delay: float = 0.0,
        **kwargs: Any,
    ) -> SimProcess:
        """Create a process and schedule it to start ``delay`` from now.

        May be called before :meth:`run` or from inside a running
        process (fork/join style, as the OpenMP layer does).  Creation
        is cheap: the OS thread comes from the worker pool at first
        dispatch.
        """
        if self._finished:
            raise SimError("cannot spawn into a finished simulation")
        if delay < 0:
            raise ValueError("spawn delay must be non-negative")
        pid = self._pid
        self._pid += 1
        if name is None:
            name = f"proc{pid}"
        proc = SimProcess(self, fn, args, kwargs, name=name, pid=pid)
        self.processes.append(proc)
        self._schedule(proc, self.now + delay)
        if self._metrics is not None:
            self._metrics.processes.inc()
        return proc

    def _schedule(self, proc: SimProcess, at: float) -> None:
        if at < self.now:
            raise SimError(
                f"cannot schedule {proc.name} in the past "
                f"({at} < now {self.now})"
            )
        proc.state = ProcState.SCHEDULED
        seq = self._seq
        self._seq = seq + 1
        if at == self.now:
            self._ready.append((at, seq, proc))
        else:
            self._eventq.push(at, seq, proc)

    # ------------------------------------------------------------------
    # process-side API (callable only from inside a simulated process)
    # ------------------------------------------------------------------

    def hold(self, dt: float) -> None:
        """Advance the calling process's local time by ``dt`` seconds."""
        if dt < 0:
            raise ValueError("hold duration must be non-negative")
        proc = current_process()
        self._check_owner(proc)
        if dt > 0.0 and self.fault_injector is not None:
            dt = self.fault_injector.perturb_hold(proc, dt)
        self._schedule(proc, self.now + dt)
        proc.waiting_on = ("hold(%g)", dt)
        proc._switch_out()
        proc.waiting_on = ""

    def passivate(self, reason: str = "passivate") -> None:
        """Block the calling process until another process activates it."""
        proc = current_process()
        self._check_owner(proc)
        proc.state = ProcState.PASSIVE
        proc.waiting_on = reason
        proc._switch_out()
        proc.waiting_on = ""

    def activate(self, proc: SimProcess, delay: float = 0.0) -> None:
        """Make a passive (or not-yet-started) process runnable.

        Callable from inside any process, or from outside before
        :meth:`run`.  Activating an already scheduled/running process is
        a no-op; activating a dead process is an error.
        """
        if delay < 0:
            raise ValueError("activate delay must be non-negative")
        self._check_owner(proc)
        if proc.state in (ProcState.PASSIVE, ProcState.CREATED):
            self._schedule(proc, self.now + delay)
        elif proc.state in (ProcState.SCHEDULED, ProcState.RUNNING):
            pass
        else:
            raise SimError(f"cannot activate dead process {proc.name}")

    def _check_owner(self, proc: SimProcess) -> None:
        if proc.sim is not self:
            raise SimError(
                f"process {proc.name} belongs to a different simulator"
            )

    # ------------------------------------------------------------------
    # the dispatch step (runs on whichever thread just gave up control)
    # ------------------------------------------------------------------

    def _next_runnable(self) -> SimProcess | None:
        """Pop the next dispatchable process and advance the clock.

        Returns ``None`` when the chain must stop, with
        ``_wake_reason`` set to why (queues empty, ``until`` horizon,
        dispatch limit).  Merges the FIFO run queue with the pending
        queue in exact ``(time, seq)`` order.  Two invariants make the
        merge cheap:

        * ready entries always carry the current timestamp, so a
          pending entry wins only when same-time with a smaller
          sequence number (it was scheduled before the clock reached
          that instant, hence before every same-time ready entry
          *after* its own bucket head),
        * the clock only advances while the FIFO is empty, so advancing
          can batch-transfer the earliest bucket -- every event of the
          new instant -- onto the FIFO in one step and serve the rest
          through the cheap FIFO path.
        """
        q = self._eventq
        ready = self._ready
        until = self._until
        while True:
            if ready:
                at, rseq, proc = ready[0]
                head = q.head()
                if head is not None and (
                    head[0] < at or (head[0] == at and head[1] < rseq)
                ):
                    if until is not None and head[0] > until:
                        self._wake_reason = self._horizon_reason
                        return None
                    at, _seq, proc = q.pop()
                else:
                    if until is not None and at > until:
                        self._wake_reason = self._horizon_reason
                        return None
                    ready.popleft()
            elif len(q):
                head = q.head()
                if until is not None and head[0] > until:
                    self._wake_reason = self._horizon_reason
                    return None
                q.transfer(ready)
                continue  # serve the transferred bucket via the FIFO
            else:
                self._wake_reason = _IDLE
                return None
            if proc.state is not ProcState.SCHEDULED:
                # Stale entry (process was killed meanwhile).
                continue
            self.now = at
            self.dispatch_count += 1
            m = self._metrics
            if m is not None:
                m.dispatches.inc()
                m.queue_depth.observe(len(ready) + len(q))
            if (
                self._max_dispatches is not None
                and self.dispatch_count > self._max_dispatches
            ):
                self._wake_reason = _LIMIT
                return None
            return proc

    def _chain_from(self, proc: SimProcess) -> bool:
        """Dispatch the successor of a process that is blocking.

        Returns True when the successor is ``proc`` itself (it was the
        earliest queued entry), in which case the caller simply keeps
        running -- no handoff at all.  Otherwise the successor's worker
        is woken (or ``run()`` is, when the chain ends) and the caller
        must block.
        """
        nxt = self._next_runnable()
        m = self._metrics
        if nxt is proc:
            proc.state = ProcState.RUNNING
            if m is not None:
                m.continuations.inc()
            return True
        if nxt is not None:
            if m is not None:
                m.handoffs.inc()
            nxt._transfer_in()
        else:
            self._main_wake.release()
        return False

    def _dispatch_onward(self) -> None:
        """Dispatch the successor of a process that finished (worker loop)."""
        nxt = self._next_runnable()
        if nxt is not None:
            if self._metrics is not None:
                self._metrics.handoffs.inc()
            nxt._transfer_in()
        else:
            self._main_wake.release()

    def _report_failure(self, proc: SimProcess) -> None:
        """Stop the chain: a process body raised (worker loop side)."""
        self._wake_reason = _FAILED
        self._failed_proc = proc
        self._main_wake.release()

    # ------------------------------------------------------------------
    # the run entry point
    # ------------------------------------------------------------------

    def run(
        self,
        until: float | None = None,
        max_dispatches: int | None = None,
        budget: float | None = None,
    ) -> float:
        """Run the simulation to completion and return the final time.

        ``until`` stops the clock at a given virtual time (remaining
        events stay queued).  ``budget`` is a virtual-time watchdog: a
        simulation still dispatching past it is declared hung and torn
        down with a :class:`HangError` carrying a structured
        :class:`~repro.simkernel.watchdog.HangReport`.
        ``max_dispatches`` bounds scheduler steps as a runaway guard
        (also a :class:`HangError`).  Raises :class:`DeadlockError`
        (with a :class:`~repro.simkernel.watchdog.DeadlockReport`) if
        all remaining processes are blocked forever, and
        :class:`SimulationCrashed` (chained to the original traceback)
        if any process raises.
        """
        if self._running:
            raise SimError("run() is not reentrant")
        if self._finished:
            raise SimError("simulation already finished")
        if maybe_current_process() is not None:
            raise SimError("run() must not be called from inside a process")
        self._running = True
        # Fold ``budget`` into the single ``until`` horizon comparison
        # the dispatch loop already performs: the earlier limit wins,
        # and _horizon_reason records which semantics apply when it
        # trips.  Ties go to ``until`` (a graceful stop beats a hang).
        if budget is not None and (until is None or budget < until):
            self._until = budget
            self._horizon_reason = _BUDGET
        else:
            self._until = until
            self._horizon_reason = _UNTIL
        self._budget = budget
        self._max_dispatches = max_dispatches
        try:
            first = self._next_runnable()
            if first is not None:
                first._transfer_in()
                self._main_wake.acquire()  # sleep until the chain ends
            reason = self._wake_reason
            if reason == _UNTIL:
                self.now = until
                return self.now
            if reason == _BUDGET:
                from .watchdog import build_hang_report

                report = build_hang_report(self, budget=budget)
                self._teardown_all()
                raise HangError(
                    f"simulation hang: {report.reason} at "
                    f"t={report.time:.6f}\n{report.format()}",
                    report=report,
                )
            if reason == _LIMIT:
                from .watchdog import build_hang_report

                report = build_hang_report(
                    self, max_dispatches=max_dispatches
                )
                self._teardown_all()
                raise HangError(
                    f"exceeded max_dispatches={max_dispatches}",
                    report=report,
                )
            if reason == _FAILED:
                failed = self._failed_proc
                assert failed is not None
                original = failed.exception
                assert original is not None
                self._teardown_all()
                raise SimulationCrashed(
                    failed.name, original
                ) from original
            stuck = [
                f"{p.name} ({p.waiting_reason() or 'passive'})"
                for p in self.processes
                if p.state is ProcState.PASSIVE
            ]
            if stuck:
                from .watchdog import build_deadlock_report

                report = build_deadlock_report(self)
                self._teardown_all()
                raise DeadlockError(stuck, report=report)
            self._finished = True
            return self.now
        finally:
            self._running = False

    def _teardown_all(self) -> None:
        self._tearing_down = True
        for proc in self.processes:
            proc._teardown()
        self._finished = True

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def results(self) -> dict[str, Any]:
        """Map process name -> return value for finished processes."""
        return {
            p.name: p.result
            for p in self.processes
            if p.state is ProcState.FINISHED
        }


# ----------------------------------------------------------------------
# convenience module-level helpers (operate on the caller's simulator)
# ----------------------------------------------------------------------

def current_sim() -> Simulator:
    """Return the simulator owning the calling process."""
    return current_process().sim


def now() -> float:
    """Virtual time as seen by the calling process."""
    return current_sim().now


def hold(dt: float) -> None:
    """Advance the calling process's virtual time by ``dt`` seconds."""
    current_sim().hold(dt)


def passivate(reason: str = "passivate") -> None:
    """Block the calling process until activated."""
    current_sim().passivate(reason)


def activate(proc: SimProcess, delay: float = 0.0) -> None:
    """Wake ``proc`` (from within a simulated process)."""
    proc.sim.activate(proc, delay)
