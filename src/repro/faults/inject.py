"""The runtime fault injector.

One :class:`FaultInjector` carries the mutable state of an active
:class:`~repro.faults.spec.FaultPlan` for one run: a small tree of
:class:`~repro.simkernel.rng.Lcg64` streams (one per fault domain,
derived from the run seed through fixed spawn indices) plus the
pre-resolved plan knobs, so the hook sites pay a single attribute read
and an ``is not None`` branch when fault injection is off.

Hook sites (all duck-typed -- none of those modules imports this one):

* :meth:`perturb_hold` -- ``Simulator.hold`` in
  :mod:`repro.simkernel.scheduler` (stragglers + timing jitter),
* :meth:`wire_delay` / :meth:`reorder_sends` -- the matching engine in
  :mod:`repro.simmpi.transport` (latency noise + bounded reorder),
* :meth:`record_copies` / :meth:`truncate_at` -- the trace encoder
  ``events_to_jsonl`` and ``write_trace`` in :mod:`repro.trace.io`
  (drop / duplicate / mid-file truncation).

Because each domain owns its own stream, adding or removing one
perturbation never shifts the draws of another, and because every draw
happens at a deterministic point of the (deterministic) simulation,
``(seed, plan)`` fully determines the perturbed run -- traces are
byte-identical across invocations.

Fault activity is counted through the :mod:`repro.obs` registry (the
``ats_fault_*`` families) when metrics are enabled.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from ..obs.instruments import fault_metrics
from ..simkernel.rng import Lcg64
from .spec import (
    DropRecords,
    DuplicateRecords,
    FaultPlan,
    MessageLatencyNoise,
    MessageReorder,
    RankStragglers,
    TimingJitter,
    TruncateTrace,
)

#: root spawn index of the fault seed tree (distinct from the rank
#: streams, which spawn at small indices, and the OpenMP thread streams
#: at ``1000 + thread``).
_FAULT_ROOT = 0xFA_0175
#: per-domain child indices under the root
_TIMING, _LATENCY, _REORDER, _RECORDS = 1, 2, 3, 4


class FaultInjector:
    """Live fault state consulted by the instrumented runtime layers."""

    __slots__ = (
        "plan",
        "seed",
        "_straggler_slowdown",
        "_jitter",
        "_latency_mag",
        "_reorder_p",
        "_reorder_window",
        "_drop",
        "_dup",
        "_truncate_frac",
        "_timing_rng",
        "_latency_rng",
        "_reorder_rng",
        "_records_rng",
        "_metrics",
    )

    def __init__(self, plan: FaultPlan, seed: int = 0):
        self.plan = plan
        self.seed = seed
        root = Lcg64(seed).spawn(_FAULT_ROOT)
        self._timing_rng = root.spawn(_TIMING)
        self._latency_rng = root.spawn(_LATENCY)
        self._reorder_rng = root.spawn(_REORDER)
        self._records_rng = root.spawn(_RECORDS)
        # Resolve the plan once; repeated perturbations of one kind
        # compose (slowdowns/magnitudes/rates add, windows take max).
        stragglers: Dict[int, float] = {}
        jitter = latency = drop = dup = trunc = 0.0
        reorder_p, reorder_window = 0.0, 1
        for p in plan.perturbations:
            if p.is_noop:
                continue
            if isinstance(p, RankStragglers):
                for rank in p.ranks:
                    stragglers[rank] = (
                        stragglers.get(rank, 0.0) + p.slowdown
                    )
            elif isinstance(p, TimingJitter):
                jitter += p.magnitude
            elif isinstance(p, MessageLatencyNoise):
                latency += p.magnitude
            elif isinstance(p, MessageReorder):
                reorder_p = min(1.0, reorder_p + p.probability)
                reorder_window = max(reorder_window, p.window)
            elif isinstance(p, DropRecords):
                drop = min(1.0, drop + p.rate)
            elif isinstance(p, DuplicateRecords):
                dup = min(1.0, dup + p.rate)
            elif isinstance(p, TruncateTrace):
                trunc = min(0.999, trunc + p.drop_fraction)
        self._straggler_slowdown = stragglers
        self._jitter = jitter
        self._latency_mag = latency
        self._reorder_p = reorder_p
        self._reorder_window = reorder_window
        self._drop = drop
        self._dup = dup
        self._truncate_frac = trunc
        self._metrics = fault_metrics()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def coerce(
        cls,
        faults: Union["FaultInjector", FaultPlan, None],
        seed: int = 0,
    ) -> Optional["FaultInjector"]:
        """Normalize a user-facing ``faults=`` argument.

        ``None`` and no-op plans resolve to ``None`` (the hooks stay
        entirely cold, guaranteeing magnitude-0 runs take the exact
        clean-run code path); plans are bound to ``seed``; injectors
        pass through.
        """
        if faults is None:
            return None
        if isinstance(faults, FaultInjector):
            return faults
        if not isinstance(faults, FaultPlan):
            raise TypeError(
                f"faults must be a FaultPlan or FaultInjector, "
                f"got {type(faults).__name__}"
            )
        if faults.is_noop:
            return None
        return cls(faults, seed=seed)

    @property
    def has_trace_faults(self) -> bool:
        return bool(self._drop or self._dup or self._truncate_frac)

    # ------------------------------------------------------------------
    # simkernel hook
    # ------------------------------------------------------------------

    def perturb_hold(self, proc, dt: float) -> float:
        """Perturbed duration for a positive ``hold(dt)`` by ``proc``."""
        out = dt
        if self._straggler_slowdown:
            slow = self._straggler_slowdown.get(
                proc.context.get("mpi_rank", 0)
            )
            if slow:
                extra = dt * slow
                out += extra
                if self._metrics is not None:
                    self._metrics.straggler_seconds.inc(extra)
        if self._jitter:
            u = self._timing_rng.random()
            delta = dt * self._jitter * (2.0 * u - 1.0)
            out += delta
            if self._metrics is not None:
                self._metrics.holds_jittered.inc()
                self._metrics.jitter_seconds.inc(abs(delta))
        return out if out > 0.0 else 0.0

    # ------------------------------------------------------------------
    # transport hooks
    # ------------------------------------------------------------------

    def wire_delay(self, base_latency: float) -> float:
        """Extra wire seconds added to one message transfer."""
        if not self._latency_mag:
            return 0.0
        extra = base_latency * self._latency_mag * self._latency_rng.random()
        if self._metrics is not None:
            self._metrics.latency_noise_seconds.inc(extra)
        return extra

    def reorder_sends(self, queue: List) -> None:
        """Maybe move the just-appended send toward the queue front.

        Displacement is bounded by the plan's reorder window; called by
        the matching engine right after an unmatched send is queued.
        """
        n = len(queue)
        if n < 2 or not self._reorder_p:
            return
        if self._reorder_rng.random() >= self._reorder_p:
            return
        hops = 1 + self._reorder_rng.randrange(self._reorder_window)
        pos = n - 1 - hops
        if pos < 0:
            pos = 0
        queue.insert(pos, queue.pop())
        if self._metrics is not None:
            self._metrics.messages_reordered.inc()

    # ------------------------------------------------------------------
    # trace-writer hooks
    # ------------------------------------------------------------------

    def record_copies(self) -> int:
        """How many copies of the next record to write (0, 1 or 2)."""
        if self._drop and self._records_rng.random() < self._drop:
            if self._metrics is not None:
                self._metrics.records_dropped.inc()
            return 0
        if self._dup and self._records_rng.random() < self._dup:
            if self._metrics is not None:
                self._metrics.records_duplicated.inc()
            return 2
        return 1

    def truncate_at(self, total_bytes: int) -> Optional[int]:
        """Byte offset to cut a finished trace's bytes at, or ``None``."""
        if not self._truncate_frac or total_bytes <= 0:
            return None
        cut = int(total_bytes * (1.0 - self._truncate_frac))
        if cut >= total_bytes:
            return None
        if self._metrics is not None:
            self._metrics.truncations.inc()
        return max(cut, 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultInjector(seed={self.seed}, plan={self.plan.describe()})"
        )
