"""The trace recorder.

One :class:`TraceRecorder` instance collects the events of one program
run, across all locations.  Every region, whether a runtime
(:mod:`repro.simmpi`, :mod:`repro.simomp`, :mod:`repro.work`) or user
code opens it, is recorded through :class:`repro.trace.api.region`; the
MPI and OpenMP runtimes add the Send, Recv, CollExit, Fork and Join
events directly.  The analyzer and the timeline renderer consume the
result.

Recording is append-only and cheap: the current call path of every
location is maintained *incrementally* as an interned tuple (the path
of a nested enter is ``parent + (region,)``, deduplicated through a
per-recorder intern table), so emitting an event never rebuilds a path
and repeated visits to the same call site share one tuple object.
Region-name strings are interned the same way.

The recorder also models *intrusion*: a configurable virtual-time cost
per region event, charged by :class:`~repro.trace.api.region` on every
enter and every exit (the other event kinds are free).  With the
default of zero the measurement is perfectly non-intrusive (the ideal
the paper asks tools to approach); benchmarks set it non-zero to study
how instrumentation overhead distorts program behaviour (paper
chapter 2).

The collected events are persisted with :func:`repro.trace.io.write_trace`.
"""

from __future__ import annotations

from sys import intern as _intern
from typing import Iterable

from ..obs.instruments import trace_metrics
from .events import (
    CallPath,
    CollExit,
    Enter,
    Event,
    Exit,
    Fork,
    Join,
    Location,
    Recv,
    Send,
)

class TraceError(Exception):
    """Malformed instrumentation (unbalanced enter/exit etc.)."""


class TraceRecorder:
    """Collects events for one run and tracks per-location call paths."""

    def __init__(self, intrusion_per_event: float = 0.0):
        if intrusion_per_event < 0:
            raise ValueError("intrusion cost must be non-negative")
        self.events: list[Event] = []
        self.intrusion_per_event = intrusion_per_event
        #: per-location stack of region names (error messages, depth_of)
        self._stacks: dict[Location, list[str]] = {}
        #: parallel per-location stack of interned full-path tuples, so
        #: the current path is always ``_paths[loc][-1]`` -- O(1), no
        #: concatenation per event.
        self._paths: dict[Location, list[CallPath]] = {}
        # Inherited call-path prefixes: a forked OpenMP thread's call
        # path continues the master's (EXPERT's call-tree convention),
        # even though its own enter/exit events start fresh.
        self._bases: dict[Location, CallPath] = {}
        #: the intern table: one tuple object per distinct call path
        self._interned: dict[CallPath, CallPath] = {}
        #: intern lookups performed; with ``len(_interned)`` this gives
        #: the hit rate.  A plain int so the hot path stays metric-free;
        #: harvested into the registry by :meth:`finish`.
        self.intern_requests = 0
        self._msg_counter = 0
        #: registry comm_id -> tuple of global ranks, filled by the MPI
        #: runtime; the analyzer needs it to localize collective waits.
        self.comm_registry: dict[int, tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    # call-path bookkeeping
    # ------------------------------------------------------------------

    def _intern_path(self, path: CallPath) -> CallPath:
        self.intern_requests += 1
        return self._interned.setdefault(path, path)

    def path_of(self, loc: Location) -> CallPath:
        """Current call path of ``loc`` (innermost last)."""
        paths = self._paths.get(loc)
        if paths:
            return paths[-1]
        return self._bases.get(loc, ())

    def seed_base(self, loc: Location, path: CallPath) -> None:
        """Set the inherited call-path prefix of a (fresh) location."""
        base = self._intern_path(tuple(path))
        self._bases[loc] = base
        stack = self._stacks.get(loc)
        if stack:
            # Re-root an already-open stack under the new base (not the
            # normal use -- bases are seeded on fresh locations -- but
            # keeps path_of consistent with the pre-incremental
            # semantics).
            paths = self._paths[loc]
            cur = base
            for i, region in enumerate(stack):
                cur = self._intern_path(cur + (region,))
                paths[i] = cur

    def depth_of(self, loc: Location) -> int:
        return len(self._stacks.get(loc, ()))

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def enter(self, time: float, loc: Location, region: str) -> None:
        """Record entry into ``region`` at ``loc``."""
        region = _intern(region)
        stack = self._stacks.get(loc)
        if stack is None:
            stack = self._stacks[loc] = []
            paths = self._paths[loc] = []
        else:
            paths = self._paths[loc]
        parent = paths[-1] if paths else self._bases.get(loc, ())
        path = self._intern_path(parent + (region,))
        stack.append(region)
        paths.append(path)
        self.events.append(Enter(time, loc, region, path))

    def exit(self, time: float, loc: Location, region: str) -> None:
        """Record exit from ``region``; must match the innermost enter."""
        stack = self._stacks.get(loc)
        if not stack or stack[-1] != region:
            raise TraceError(
                f"unbalanced exit({region!r}) at {loc}: stack={stack}"
            )
        paths = self._paths[loc]
        path = paths[-1]
        stack.pop()
        paths.pop()
        self.events.append(Exit(time, loc, region, path))

    def new_msg_id(self) -> int:
        """Allocate a globally unique message id for a send/recv pair."""
        self._msg_counter += 1
        return self._msg_counter

    def send(
        self,
        time: float,
        loc: Location,
        peer: int,
        tag: int,
        comm_id: int,
        nbytes: int,
        msg_id: int,
        internal: bool = False,
    ) -> None:
        self.events.append(
            Send(
                time,
                loc,
                peer=peer,
                tag=tag,
                comm_id=comm_id,
                nbytes=nbytes,
                msg_id=msg_id,
                path=self.path_of(loc),
                internal=internal,
            )
        )

    def recv(
        self,
        time: float,
        loc: Location,
        peer: int,
        tag: int,
        comm_id: int,
        nbytes: int,
        msg_id: int,
        post_time: float,
        internal: bool = False,
    ) -> None:
        self.events.append(
            Recv(
                time,
                loc,
                peer=peer,
                tag=tag,
                comm_id=comm_id,
                nbytes=nbytes,
                msg_id=msg_id,
                post_time=post_time,
                path=self.path_of(loc),
                internal=internal,
            )
        )

    def coll_exit(
        self,
        time: float,
        loc: Location,
        op: str,
        comm_id: int,
        instance: int,
        root: int,
        enter_time: float,
        bytes_sent: int = 0,
        bytes_recv: int = 0,
    ) -> None:
        self.events.append(
            CollExit(
                time,
                loc,
                op=op,
                comm_id=comm_id,
                instance=instance,
                root=root,
                enter_time=enter_time,
                bytes_sent=bytes_sent,
                bytes_recv=bytes_recv,
                path=self.path_of(loc),
            )
        )

    def fork(
        self, time: float, loc: Location, team_size: int, team_id: int
    ) -> None:
        self.events.append(
            Fork(time, loc, team_size=team_size, team_id=team_id,
                 path=self.path_of(loc))
        )

    def join(self, time: float, loc: Location, team_id: int) -> None:
        self.events.append(
            Join(time, loc, team_id=team_id, path=self.path_of(loc))
        )

    def register_comm(self, comm_id: int, ranks: Iterable[int]) -> None:
        """Record the global ranks that make up a communicator."""
        self.comm_registry[comm_id] = tuple(ranks)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def locations(self) -> list[Location]:
        """All locations that produced events, sorted."""
        return sorted({e.loc for e in self.events})

    def finish(self) -> None:
        """Check that all call stacks unwound (balanced instrumentation).

        Also the harvest point for trace metrics: event counts per kind
        and interning statistics are folded into the registry here, in
        one pass at end of run, so recording itself carries no metric
        code.
        """
        leftovers = {
            str(loc): list(stack)
            for loc, stack in self._stacks.items()
            if stack
        }
        if leftovers:
            raise TraceError(f"unbalanced regions at end of run: {leftovers}")
        metrics = trace_metrics()
        if metrics is not None:
            metrics.harvest_recorder(self)

    def __len__(self) -> int:
        return len(self.events)
