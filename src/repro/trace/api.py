"""Process-facing tracing helpers: the one recorder of regions.

The runtimes store the active recorder and the process's trace location
in ``SimProcess.context`` under the keys ``"recorder"`` and ``"loc"``.
:class:`region` reads them back, so user code (property functions,
applications) traces a region without threading those objects through
every call -- matching the paper's goal that modules "have as little
context as possible".

:class:`region` is also the only code that records an Enter/Exit pair.
The MPI runtime (``MPI_Init``/``MPI_Finalize``, every point-to-point
call and collective), the OpenMP runtime (parallel regions,
worksharing, critical sections, locks, barriers) and the work and I/O
primitives all open their regions through it.  So one place decides
how a region is recorded, what it costs in virtual time (the
recorder's ``intrusion_per_event`` on enter and again on exit) and
what happens when a process is torn down inside it.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..simkernel import current_process, maybe_current_process
from .events import Location
from .recorder import TraceRecorder


#: Shared default: constructing a Location per untraced call shows up
#: on the instrumentation hot path (one ``current_instrumentation()``
#: call per traced MPI/OpenMP operation).
_UNTRACED_LOC = Location(0, 0)


def current_instrumentation() -> Tuple[Optional[TraceRecorder], Location]:
    """Recorder and location bound to the calling simulated process.

    Returns ``(None, Location(0, 0))`` when the process is untraced.
    """
    proc = maybe_current_process()
    if proc is None:
        return None, _UNTRACED_LOC
    rec = proc.context.get("recorder")
    loc = proc.context.get("loc", _UNTRACED_LOC)
    return rec, loc


def bind_instrumentation(
    recorder: Optional[TraceRecorder], loc: Location
) -> None:
    """Attach a recorder and location to the calling process.

    Called by the MPI/OpenMP runtimes when they start a rank or fork a
    team thread.
    """
    proc = current_process()
    proc.context["recorder"] = recorder
    proc.context["loc"] = loc


class region:
    """Trace ``name`` as one region around a block of code.

    Usage inside any simulated process::

        with region("initialization"):
            ...

    Entering and leaving each hold the process for the recorder's
    ``intrusion_per_event`` (zero by default).  Untraced processes run
    the block with no record and no hold.  A plain ``__slots__`` class
    rather than a generator context manager: every MPI call, OpenMP
    construct and work phase opens one, so its fixed cost is paid per
    region.
    """

    __slots__ = ("name", "_proc", "_rec", "_loc")

    def __init__(self, name: str) -> None:
        self.name = name

    def __enter__(self) -> None:
        proc = maybe_current_process()
        rec = self._rec = (
            proc.context.get("recorder") if proc is not None else None
        )
        if rec is None:
            return
        loc = self._loc = proc.context.get("loc", _UNTRACED_LOC)
        self._proc = proc
        rec.enter(proc.sim.now, loc, self.name)
        if rec.intrusion_per_event:
            proc.sim.hold(rec.intrusion_per_event)

    def __exit__(self, *exc: object) -> None:
        rec = self._rec
        if rec is None:
            return
        proc = self._proc
        # A forced teardown unwind (watchdog kill) tears through inner
        # regions without exiting them; recording the exit here would
        # raise an unbalanced-region error and calling hold() would
        # re-enter the dying scheduler, so skip both.
        if not proc._kill_requested:
            rec.exit(proc.sim.now, self._loc, self.name)
            if rec.intrusion_per_event:
                proc.sim.hold(rec.intrusion_per_event)
