"""Label-aware metrics registry: counters, gauges, histograms.

The runtime layers (:mod:`repro.simkernel`, :mod:`repro.simmpi`,
:mod:`repro.simomp`, :mod:`repro.trace`, :mod:`repro.analysis`) record
host-side telemetry here; the exporters in :mod:`repro.obs.export`
render a registry as Prometheus text exposition or a JSON snapshot.

Design constraints, in order of importance:

1. **Determinism is untouchable.**  Metrics only *observe* the
   simulation; nothing here may feed back into virtual time, event
   ordering or RNG streams.  Per-seed trace dumps must stay
   byte-identical with metrics on or off.
2. **Disabled mode costs nothing.**  The global switch defaults to
   off.  Instrument bundles (:mod:`repro.obs.instruments`) resolve to
   ``None`` when disabled, so hot paths pay one attribute load and an
   ``is not None`` branch -- no allocation, no method call.
3. **Enabled mode stays cheap.**  ``Counter.inc`` is one float add;
   ``Histogram.observe`` is a linear scan over a handful of fixed
   bucket boundaries plus one uncontended lock.

Thread-safety contract (audited for the analysis service, which
scrapes the registry from an event loop while pooled worker threads
record):

* ``Counter``/``Gauge`` hold a single float; reads and single-opcode
  writes are atomic under the GIL, so a scrape can never observe a
  torn scalar.  (Concurrent ``inc`` from many threads may still lose
  updates -- the simulation kernel's one-runnable-thread guarantee
  covers the sim-side families, and service-side counters are only
  incremented from the event-loop thread.)
* ``Histogram`` updates three fields per observation; without mutual
  exclusion a scrape could see ``count`` without the matching bucket
  increment.  ``observe`` and :meth:`Histogram.snapshot` therefore
  share a per-histogram lock, and exporters only read through
  ``snapshot()``.
* Family and child creation mutate dicts that exporters iterate, so
  creation takes a registry-wide lock and iteration happens over
  locked copies (:meth:`MetricFamily.samples`,
  :meth:`MetricsRegistry.collect`).  The steady-state recording path
  (cached child, ``inc``/``observe``) never touches the registry lock.

Metrics are grouped into *families* (one name, one type, fixed label
names); a family with labels hands out per-label-value children via
:meth:`MetricFamily.labels`, which are cached so steady-state recording
allocates nothing.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "get_registry",
    "metrics_enabled",
    "quantile_from_counts",
    "reset_metrics",
    "set_metrics_enabled",
]

#: default histogram boundaries -- wall/virtual seconds, log-spaced
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)

LabelValues = Tuple[str, ...]


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def set_total(self, value: float) -> None:
        """Overwrite the total (harvest-style collectors only)."""
        self.value = value


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-boundary histogram with cumulative-bucket export.

    ``boundaries`` are the upper bounds of the finite buckets; the
    implicit ``+Inf`` bucket is always present.  ``counts[i]`` is the
    *non*-cumulative count of observations ``<= boundaries[i]`` (the
    exporter accumulates), ``counts[-1]`` the overflow count.
    """

    __slots__ = ("boundaries", "counts", "sum", "count", "_lock")

    def __init__(self, boundaries: Sequence[float]) -> None:
        bounds = tuple(float(b) for b in boundaries)
        if not bounds:
            raise ValueError("histogram needs at least one boundary")
        if list(bounds) != sorted(bounds):
            raise ValueError("histogram boundaries must be sorted")
        self.boundaries = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.sum += value
            self.count += 1
            for i, bound in enumerate(self.boundaries):
                if value <= bound:
                    self.counts[i] += 1
                    return
            self.counts[-1] += 1

    def snapshot(self) -> Tuple[List[int], float, int]:
        """A consistent ``(counts, sum, count)`` view for exporters.

        Taken under the observation lock so a scrape never sees a
        ``count`` without its matching bucket increment (a torn read).
        """
        with self._lock:
            return list(self.counts), self.sum, self.count

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-quantile by linear bucket interpolation.

        The estimate assumes observations are uniformly distributed
        within their bucket (the standard Prometheus
        ``histogram_quantile`` model): the first finite bucket
        interpolates from 0, and any rank landing in the ``+Inf``
        overflow bucket clamps to the highest finite boundary.
        Returns ``None`` for an empty histogram.
        """
        counts, _, total = self.snapshot()
        return quantile_from_counts(self.boundaries, counts, total, q)


def quantile_from_counts(
    boundaries: Sequence[float],
    counts: Sequence[int],
    total: int,
    q: float,
) -> Optional[float]:
    """Linear bucket interpolation over an already-taken snapshot.

    Shared by :meth:`Histogram.quantile` and the JSON exporter (which
    derives p50/p95/p99 from the one snapshot it is already writing,
    so the reported quantiles always match the reported buckets).
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if total == 0:
        return None
    target = q * total
    cumulative = 0
    lower = 0.0
    for i, bound in enumerate(boundaries):
        in_bucket = counts[i]
        if cumulative + in_bucket >= target:
            if in_bucket == 0:
                return bound
            fraction = (target - cumulative) / in_bucket
            return lower + fraction * (bound - lower)
        cumulative += in_bucket
        lower = bound
    return boundaries[-1]


class MetricFamily:
    """One named metric: a type, help text, label names, children.

    Unlabeled families have exactly one child (empty label tuple);
    labeled ones create children on first use of each label-value
    combination.  Children are plain :class:`Counter`/:class:`Gauge`/
    :class:`Histogram` objects, cached so repeated ``labels()`` calls
    return the same instance.
    """

    __slots__ = (
        "name", "help", "type", "labelnames", "buckets", "children",
        "_lock",
    )

    _TYPES = ("counter", "gauge", "histogram")

    def __init__(
        self,
        name: str,
        help: str,
        type: str,
        labelnames: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        if type not in self._TYPES:
            raise ValueError(f"unknown metric type {type!r}")
        self.name = name
        self.help = help
        self.type = type
        self.labelnames = tuple(labelnames)
        self.buckets = (
            tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        )
        self.children: Dict[LabelValues, object] = {}
        self._lock = threading.Lock()
        if not self.labelnames:
            self.children[()] = self._new_child()

    def _new_child(self):
        if self.type == "counter":
            return Counter()
        if self.type == "gauge":
            return Gauge()
        return Histogram(self.buckets)

    def labels(self, **labels: str):
        """Child metric for the given label values (cached)."""
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        child = self.children.get(key)
        if child is None:
            # Creation is rare; take the family lock so a concurrent
            # exporter never iterates a dict mid-mutation and two
            # threads never race to install different children.
            with self._lock:
                child = self.children.get(key)
                if child is None:
                    child = self.children[key] = self._new_child()
        return child

    @property
    def default(self):
        """The single child of an unlabeled family."""
        if self.labelnames:
            raise ValueError(f"{self.name} is labeled; use .labels()")
        return self.children[()]

    def samples(self) -> Iterator[Tuple[LabelValues, object]]:
        """(label values, child) pairs in insertion order.

        Iterates a locked copy, so exporters are safe against a worker
        thread creating a new labeled child mid-scrape.
        """
        with self._lock:
            return iter(list(self.children.items()))


class MetricsRegistry:
    """A collection of metric families plus harvest-time collectors.

    ``counter``/``gauge``/``histogram`` declare (or re-fetch) a family;
    for unlabeled families they return the child metric directly, so
    call sites read naturally::

        dispatches = registry.counter(
            "ats_sim_dispatches_total", "Scheduler dispatch steps")
        dispatches.inc()

    Collectors registered via :meth:`register_collector` run at
    :meth:`collect` time; they harvest counters that live as plain
    attributes on runtime objects (e.g. the worker pool) so the hot
    paths never touch the registry.
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}
        self._collectors: list[Callable[["MetricsRegistry"], None]] = []
        #: per-subsystem instrument-bundle cache (see instruments.py)
        self._bundles: Dict[str, object] = {}
        #: guards family declaration and collect-time iteration
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # declaration
    # ------------------------------------------------------------------

    def _family(
        self,
        name: str,
        help: str,
        type: str,
        labelnames: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            with self._lock:
                family = self._families.get(name)
                if family is None:
                    family = MetricFamily(
                        name, help, type, labelnames, buckets
                    )
                    self._families[name] = family
                    return family
        if family.type != type or family.labelnames != tuple(labelnames):
            raise ValueError(
                f"metric {name} re-declared with different "
                f"type/labels"
            )
        return family

    def counter(self, name: str, help: str, labelnames: Sequence[str] = ()):
        family = self._family(name, help, "counter", labelnames)
        return family if labelnames else family.default

    def gauge(self, name: str, help: str, labelnames: Sequence[str] = ()):
        family = self._family(name, help, "gauge", labelnames)
        return family if labelnames else family.default

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ):
        family = self._family(name, help, "histogram", labelnames, buckets)
        return family if labelnames else family.default

    # ------------------------------------------------------------------
    # collection
    # ------------------------------------------------------------------

    def register_collector(
        self, fn: Callable[["MetricsRegistry"], None]
    ) -> None:
        self._collectors.append(fn)

    def collect(self) -> list[MetricFamily]:
        """Run collectors, then return families sorted by name.

        The returned list is built from a locked copy of the family
        table, so a scrape that overlaps concurrent family declaration
        sees a consistent (if momentarily stale) set.
        """
        for fn in self._collectors:
            fn(self)
        with self._lock:
            families = dict(self._families)
        return [families[k] for k in sorted(families)]


# ----------------------------------------------------------------------
# the process-global switch and registry
# ----------------------------------------------------------------------

_enabled = os.environ.get("ATS_METRICS", "").lower() in ("1", "true", "on")
_registry = MetricsRegistry()


def metrics_enabled() -> bool:
    """Whether the global metrics switch is on."""
    return _enabled


def set_metrics_enabled(flag: bool) -> bool:
    """Flip the global switch; returns the previous state.

    Instrument bundles are resolved when runtime objects are
    *constructed*, so enable metrics before building simulators /
    worlds / recorders (the CLI does this before launching a run).
    """
    global _enabled
    previous = _enabled
    _enabled = bool(flag)
    return previous


def get_registry() -> MetricsRegistry:
    """The process-global registry (real even while disabled)."""
    return _registry


def reset_metrics() -> MetricsRegistry:
    """Swap in a fresh global registry (test isolation); returns it.

    The enabled flag is left as-is.  Existing instrument bundles keep
    pointing at the old registry; runtime objects constructed after the
    reset bind to the new one.
    """
    global _registry
    _registry = MetricsRegistry()
    return _registry
