"""ASCII timeline rendering.

The paper demonstrates ATS programs with Vampir timeline displays
(figures 3.2-3.4).  This module renders the same information -- which
region each location is in over time -- as text, one row per location,
one character column per time bucket.  Categories:

* ``=``  computation (``work`` regions)
* ``M``  MPI point-to-point calls
* ``C``  MPI collective calls
* ``B``  MPI barrier
* ``I``  MPI init/finalize
* ``o``  OpenMP constructs (``$`` for OpenMP barriers)
* ``u``  user regions / property-function bodies
* `` ``  outside any region (before start / after finish)

The innermost active region at each bucket midpoint wins.
"""

from __future__ import annotations

from typing import Sequence

from .events import Event, Location
from .stats import RegionInterval, region_intervals

_CATEGORY_CHARS = [
    # (predicate prefix, char) checked in order on the innermost region
    ("work", "="),
    ("MPI_Barrier", "B"),
    ("MPI_Init", "I"),
    ("MPI_Finalize", "I"),
    ("omp_barrier", "$"),
    ("omp_ibarrier", "$"),
]

_P2P_REGIONS = {
    "MPI_Send",
    "MPI_Recv",
    "MPI_Isend",
    "MPI_Irecv",
    "MPI_Wait",
    "MPI_Waitall",
    "MPI_Sendrecv",
}

_COLLECTIVE_PREFIXES = (
    "MPI_Bcast",
    "MPI_Reduce",
    "MPI_Allreduce",
    "MPI_Scatter",
    "MPI_Gather",
    "MPI_Allgather",
    "MPI_Alltoall",
    "MPI_Scan",
    "MPI_Reduce_scatter",
)


def region_char(region: str) -> str:
    """Map a region name to its one-character timeline category."""
    for prefix, char in _CATEGORY_CHARS:
        if region.startswith(prefix):
            return char
    if region in _P2P_REGIONS:
        return "M"
    if region.startswith(_COLLECTIVE_PREFIXES):
        return "C"
    if region.startswith("omp_"):
        return "o"
    return "u"


def _interval_lists(
    events: Sequence[Event],
) -> dict[Location, list[RegionInterval]]:
    """Per location: its region intervals, still-open regions closed."""
    intervals: dict[Location, list[RegionInterval]] = {}
    for interval in region_intervals(events, close_open=True):
        intervals.setdefault(interval.loc, []).append(interval)
    return intervals


def render_timeline(
    events: Sequence[Event],
    width: int = 100,
    t_end: float | None = None,
    title: str = "",
) -> str:
    """Render an ASCII timeline of ``events``.

    ``width`` is the number of time buckets; ``t_end`` overrides the
    time-axis end (defaults to the last event time).
    """
    events = sorted(events, key=lambda e: e.time)
    if not events:
        return "(empty trace)\n"
    end = t_end if t_end is not None else max(e.time for e in events)
    if end <= 0:
        end = 1.0
    dt = end / width
    intervals = _interval_lists(events)
    locations = sorted(intervals)
    lines = []
    if title:
        lines.append(title)
    lines.append(
        f"time axis: 0 .. {end:.6g} s, {width} buckets of {dt:.3g} s"
    )
    for loc in locations:
        # Sort intervals by depth so deeper (innermost) paint last.
        row = [" "] * width
        for iv in sorted(intervals[loc], key=lambda iv: iv.depth):
            char = region_char(iv.region)
            first = max(0, min(width - 1, int(iv.enter / dt)))
            last = max(
                0, min(width - 1, int(max(iv.enter, iv.exit - 1e-12) / dt))
            )
            for col in range(first, last + 1):
                row[col] = char
        lines.append(f"{str(loc):>6} |{''.join(row)}|")
    lines.append(
        "legend: = work  M p2p  C collective  B barrier  I init/final"
        "  o omp  $ omp-barrier  u user"
    )
    return "\n".join(lines) + "\n"


def state_at(
    events: Sequence[Event], loc: Location, time: float
) -> str | None:
    """Innermost region active at ``loc`` at ``time`` (None if idle)."""
    best: tuple[int, str] | None = None
    for iv in _interval_lists(
        sorted(events, key=lambda e: e.time)
    ).get(loc, []):
        if iv.enter <= time < iv.exit and (
            best is None or iv.depth > best[0]
        ):
            best = (iv.depth, iv.region)
    return best[1] if best else None
