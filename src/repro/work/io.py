"""Modeled I/O phases.

The paper's future-work list includes "test functions for sequential
performance properties".  I/O dominance is the classic one that needs
no parallel substrate: this module models read/write phases as traced
``io_read``/``io_write`` regions of a given duration, giving the
analyzer's I/O-bound detector something real to measure.
"""

from __future__ import annotations

from ..simkernel import current_process
from ..trace.api import region

IO_READ_REGION = "io_read"
IO_WRITE_REGION = "io_write"


def do_io(secs: float, kind: str = "read") -> None:
    """Perform ``secs`` seconds of modeled file I/O.

    ``kind`` is ``"read"`` or ``"write"``; the phase appears in the
    trace as ``io_read``/``io_write`` so profiles and detectors can
    separate it from computation.
    """
    if secs < 0:
        raise ValueError(f"io amount must be non-negative, got {secs}")
    if kind not in ("read", "write"):
        raise ValueError(f"io kind must be 'read' or 'write': {kind!r}")
    proc = current_process()
    with region(IO_READ_REGION if kind == "read" else IO_WRITE_REGION):
        if secs > 0:
            proc.sim.hold(secs)
