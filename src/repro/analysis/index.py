"""One-pass trace index shared by all detectors.

Before this existed every detector rescanned the flat event list:
region-imbalance detectors replayed enter/exit stacks, p2p detectors
rebuilt the msg_id match tables, collective detectors regrouped
``CollExit`` events -- each linear in the trace, once per detector.
:class:`TraceIndex` performs a single pass and precomputes all three
views (plus by-kind and by-location groupings); the analyzer builds it
once and hands it to the whole battery.

The index is a :class:`~collections.abc.Sequence` over the underlying
events, so detectors that iterate the raw stream keep working
unchanged, and the helpers in :mod:`repro.analysis.detectors.base`
short-circuit to the precomputed views when given an index.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Dict, Iterable, Iterator, List, Tuple

from ..trace.events import CallPath, CollExit, Event, Location, Recv, Send
from ..trace.stats import RegionInterval, region_intervals

#: One completed region instance at one location.  The analysis layer
#: historically had its own ``RegionVisit`` duplicating the profile
#: replay in :mod:`repro.trace.stats`; both now share the single
#: :class:`~repro.trace.stats.RegionInterval` implementation.
RegionVisit = RegionInterval

#: Replay enter/exit events into completed visits -- the canonical
#: implementation lives in :func:`repro.trace.stats.region_intervals`.
replay_region_visits = region_intervals

#: region names whose exclusive time is synchronization wait: the MPI
#: barrier and completion calls plus every OpenMP barrier (explicit and
#: the implicit ``omp_ibarrier_*`` family), critical sections and locks
_WAIT_REGIONS = frozenset(
    {
        "MPI_Barrier",
        "MPI_Wait",
        "MPI_Waitall",
        "MPI_Waitany",
        "omp_barrier",
        "omp_critical",
        "omp_lock",
    }
)


def classify_region(region: str) -> str:
    """Bucket a region name: ``"comm"``, ``"comp"`` or ``"wait"``.

    * **wait** -- barrier / completion / lock regions, where exclusive
      time is time spent blocked on other ranks or threads,
    * **comm** -- every other ``MPI_*`` call (data movement),
    * **comp** -- everything else (user work, I/O, OpenMP bodies).
    """
    if region in _WAIT_REGIONS or region.startswith("omp_ibarrier"):
        return "wait"
    if region.startswith("MPI_"):
        return "comm"
    return "comp"


class TraceIndex(Sequence):
    """Single-pass index over a time-ordered event stream.

    Attributes (all built in one scan of ``events``):

    * ``events`` -- the underlying list, in trace order,
    * ``by_kind`` -- event-kind string -> events of that kind,
    * ``by_location`` -- :class:`Location` -> that location's events,
    * ``region_visits`` -- completed region instances in exit order,
    * ``p2p_pairs`` -- matched user-level ``(Send, Recv)`` pairs, in
      first-recv order (internal collective traffic excluded),
    * ``collectives`` -- ``(comm_id, instance, op)`` -> participant
      ``CollExit`` events,
    * ``locations`` -- sorted list of all locations seen,
    * ``features`` -- ``(total_time, matrix)`` once
      :func:`repro.stats.detector.derive_features` has built this
      trace's behavior matrix, so every statistical detector of one
      analysis shares one feature build; ``None`` before.
    """

    __slots__ = (
        "events",
        "by_kind",
        "by_location",
        "region_visits",
        "p2p_pairs",
        "collectives",
        "locations",
        "features",
    )

    def __init__(self, events: Iterable[Event]):
        evs: List[Event] = (
            events if isinstance(events, list) else list(events)
        )
        self.events = evs
        by_kind: Dict[str, List[Event]] = {}
        by_location: Dict[Location, List[Event]] = {}
        collectives: Dict[Tuple[int, int, str], List[CollExit]] = {}
        sends: Dict[int, Send] = {}
        recvs: Dict[int, Recv] = {}
        visits: List[RegionVisit] = []
        stacks: Dict[Location, list] = {}
        for event in evs:
            kind = event.kind
            by_kind.setdefault(kind, []).append(event)
            loc = event.loc
            by_location.setdefault(loc, []).append(event)
            if kind == "enter":
                stacks.setdefault(loc, []).append(
                    [event.region, event.time, event.path, 0.0]
                )
            elif kind == "exit":
                stack = stacks.get(loc)
                if not stack or stack[-1][0] != event.region:
                    continue
                region, enter, path, child_time = stack.pop()
                inclusive = event.time - enter
                if stack:
                    stack[-1][3] += inclusive
                visits.append(
                    RegionVisit(
                        loc=loc,
                        region=region,
                        path=path,
                        enter=enter,
                        exit=event.time,
                        depth=len(stack),
                        child_time=child_time,
                    )
                )
            elif kind == "send":
                if not event.internal:
                    sends[event.msg_id] = event
            elif kind == "recv":
                if not event.internal:
                    recvs[event.msg_id] = event
            elif kind == "coll":
                collectives.setdefault(
                    (event.comm_id, event.instance, event.op), []
                ).append(event)
        self.by_kind = by_kind
        self.by_location = by_location
        self.region_visits = visits
        self.p2p_pairs = [
            (sends[msg_id], recv)
            for msg_id, recv in recvs.items()
            if msg_id in sends
        ]
        self.collectives = collectives
        self.locations = sorted(by_location)
        self.features = None

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------

    def per_location_region_seconds(
        self,
    ) -> Dict[Location, Dict[CallPath, Dict[str, float]]]:
        """Exclusive seconds per location, call path and time bucket.

        ``location -> call path -> {"comm", "comp", "wait"} -> seconds``
        where the bucket of each completed region visit is decided by
        :func:`classify_region` and its *exclusive* time is charged, so
        nested regions partition busy time without double counting.
        Iteration order is the precomputed exit-order visit list, so the
        float accumulation (and therefore the result) is deterministic
        for a given trace.
        """
        out: Dict[Location, Dict[CallPath, Dict[str, float]]] = {}
        for visit in self.region_visits:
            bucket = classify_region(visit.region)
            per_path = out.setdefault(visit.loc, {})
            buckets = per_path.setdefault(
                visit.path, {"comm": 0.0, "comp": 0.0, "wait": 0.0}
            )
            buckets[bucket] += visit.exclusive
        return out

    def per_rank_region_seconds(
        self,
    ) -> Dict[int, Dict[CallPath, Dict[str, float]]]:
        """Exclusive seconds per rank, call path and time bucket.

        The per-location view aggregated over threads of the same rank:
        ``rank -> call path -> {"comm", "comp", "wait"} -> seconds``.
        This is the feature substrate of :mod:`repro.stats` -- the
        wall-time split the similarity detectors cluster over -- and it
        shares the one region replay with the
        :func:`repro.trace.stats.profile_trace` view.
        """
        out: Dict[int, Dict[CallPath, Dict[str, float]]] = {}
        for visit in self.region_visits:
            bucket = classify_region(visit.region)
            per_path = out.setdefault(visit.loc.rank, {})
            buckets = per_path.setdefault(
                visit.path, {"comm": 0.0, "comp": 0.0, "wait": 0.0}
            )
            buckets[bucket] += visit.exclusive
        return out

    # ------------------------------------------------------------------
    # Sequence protocol: an index is usable anywhere the raw event list
    # was (detectors iterate it, slices return plain lists).
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __getitem__(self, item):
        return self.events[item]

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __repr__(self) -> str:
        return (
            f"<TraceIndex {len(self.events)} events, "
            f"{len(self.locations)} locations, "
            f"{len(self.region_visits)} visits, "
            f"{len(self.p2p_pairs)} p2p pairs, "
            f"{len(self.collectives)} collectives>"
        )
