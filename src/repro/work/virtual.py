"""Virtual-time work specification.

``do_work(secs)`` is the paper's central primitive: "specify the amount
of generic work to be executed by the individual threads or processes".
The paper's C prototype approximates wall time with a calibrated busy
loop and warns it "is not guaranteed to be stable especially under
heavy work load".  On the simulation substrate we can do strictly
better: virtual time advances by *exactly* the requested amount, so the
performance properties built on top have precisely controllable
severities.  (The calibrated real-time variant is in
:mod:`repro.work.real` for completeness.)
"""

from __future__ import annotations

from ..simkernel import current_process
from ..trace.api import region

#: region name used for work phases in traces
WORK_REGION = "work"


def do_work(secs: float) -> None:
    """Perform ``secs`` seconds of generic computation (virtual time).

    Must be called from inside a simulated process.  Appears in the
    trace as a ``work`` region so timelines and profiles can separate
    computation from communication/synchronization.
    """
    if secs < 0:
        raise ValueError(f"work amount must be non-negative, got {secs}")
    proc = current_process()
    with region(WORK_REGION):
        if secs > 0:
            proc.sim.hold(secs)
