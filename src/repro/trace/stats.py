"""Trace statistics: per-region and per-location time profiles.

A lightweight "profile view" over a trace, used by the overhead
benchmarks, ``ats analyze --profile`` and the Chrome trace-event
export.  Exclusive time of a region is its inclusive time minus the
inclusive time of its direct children.

:func:`region_intervals` is the shared replay underneath: one pass
over enter/exit events yielding every completed region instance with
its nesting depth -- :func:`profile_trace` aggregates the intervals,
:mod:`repro.obs.chrome` renders them as timeline slices, and
:mod:`repro.trace.timeline` draws them, open regions included.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Sequence

from .events import CallPath, Enter, Event, Exit, Location


@dataclass
class RegionProfile:
    """Aggregated timing of one region name at one location."""

    region: str
    loc: Location
    visits: int = 0
    inclusive: float = 0.0
    exclusive: float = 0.0


@dataclass
class TraceProfile:
    """Profile of a whole trace."""

    per_region: Dict[tuple[str, Location], RegionProfile] = field(
        default_factory=dict
    )
    total_time: float = 0.0
    locations: list[Location] = field(default_factory=list)

    def region_total(self, region: str) -> float:
        """Inclusive time of ``region`` summed over all locations."""
        return sum(
            p.inclusive
            for (name, _), p in self.per_region.items()
            if name == region
        )

    def exclusive_total(self, region: str) -> float:
        return sum(
            p.exclusive
            for (name, _), p in self.per_region.items()
            if name == region
        )

    def regions(self) -> list[str]:
        return sorted({name for name, _ in self.per_region})


@dataclass(frozen=True)
class RegionInterval:
    """One completed region instance: the unit of profile aggregation.

    ``depth`` is the nesting level at entry (0 = outermost) and
    ``child_time`` the summed inclusive time of direct children, so
    ``exclusive = exit - enter - child_time``.
    """

    loc: Location
    region: str
    path: CallPath
    enter: float
    exit: float
    depth: int
    child_time: float

    @property
    def inclusive(self) -> float:
        return self.exit - self.enter

    @property
    def exclusive(self) -> float:
        return self.exit - self.enter - self.child_time


def region_intervals(
    events: Iterable[Event],
    close_open: bool = False,
) -> Iterator[RegionInterval]:
    """Replay enter/exit events into completed intervals (exit order).

    Events must be time-ordered per location (as recorded).  Mismatched
    exits and regions left open at the end of the stream are tolerated
    and skipped, so truncated traces still profile.  With
    ``close_open`` (the timeline's view of a cut trace), the regions
    left open are yielded last instead, each closed at its location's
    last event time, innermost first.
    """
    if close_open:
        events = list(events)
    stacks: dict[Location, list[list]] = defaultdict(list)
    # stack entry: [region, enter_time, path, child_inclusive]
    for event in events:
        if isinstance(event, Enter):
            stacks[event.loc].append(
                [event.region, event.time, event.path, 0.0]
            )
        elif isinstance(event, Exit):
            stack = stacks[event.loc]
            if not stack or stack[-1][0] != event.region:
                continue  # tolerate truncated traces
            region, start, path, child_incl = stack.pop()
            inclusive = event.time - start
            if stack:
                stack[-1][3] += inclusive
            yield RegionInterval(
                loc=event.loc,
                region=region,
                path=path,
                enter=start,
                exit=event.time,
                depth=len(stack),
                child_time=child_incl,
            )
    if not close_open:
        return
    last: dict[Location, float] = {}
    for event in events:
        last[event.loc] = max(last.get(event.loc, 0.0), event.time)
    for loc, stack in stacks.items():
        while stack:
            region, start, path, child_incl = stack.pop()
            if stack:
                stack[-1][3] += last[loc] - start
            yield RegionInterval(
                loc, region, path, start, last[loc], len(stack), child_incl
            )


def profile_trace(events: Sequence[Event]) -> TraceProfile:
    """Compute inclusive/exclusive region times from enter/exit events.

    Accepts either a raw event sequence or anything carrying a
    precomputed ``region_visits`` list (a
    :class:`repro.analysis.index.TraceIndex`), in which case the replay
    is skipped entirely -- profile and analysis share one interval
    implementation.
    """
    profile = TraceProfile()
    max_time = 0.0
    for event in events:
        if event.time > max_time:
            max_time = event.time
    intervals = getattr(events, "region_visits", None)
    if intervals is None:
        ordered = sorted(events, key=lambda e: e.time)
        intervals = region_intervals(ordered)
    for interval in intervals:
        key = (interval.region, interval.loc)
        rp = profile.per_region.setdefault(
            key, RegionProfile(interval.region, interval.loc)
        )
        rp.visits += 1
        rp.inclusive += interval.inclusive
        rp.exclusive += interval.exclusive
    profile.total_time = max_time
    profile.locations = sorted({e.loc for e in events})
    return profile


def format_profile(profile: TraceProfile, top: int = 20) -> str:
    """Human-readable profile table (aggregated over locations)."""
    agg: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for (region, _), rp in profile.per_region.items():
        agg[region][0] += rp.visits
        agg[region][1] += rp.inclusive
        agg[region][2] += rp.exclusive
    rows = sorted(agg.items(), key=lambda kv: -kv[1][2])[:top]
    lines = [f"{'region':<28}{'visits':>8}{'incl(s)':>12}{'excl(s)':>12}"]
    for region, (visits, incl, excl) in rows:
        lines.append(f"{region:<28}{visits:>8}{incl:>12.6f}{excl:>12.6f}")
    return "\n".join(lines) + "\n"
