"""Runtime observability: metrics registry, host spans, exporters.

The paper's chapter-2 validation asks how much a tool's measurement
machinery costs; this package turns that question on our own stack.
Every runtime layer reports into a process-global, label-aware metrics
registry (counters / gauges / fixed-bucket histograms) and a host-side
span log; exporters render the result as Prometheus text exposition, a
JSON snapshot, or a Perfetto-viewable Chrome trace-event file.

Everything defaults to **off** and is engineered so the disabled path
adds no observable overhead and never perturbs simulation determinism:

* instrument bundles (:mod:`repro.obs.instruments`) resolve to ``None``
  while disabled -- hot paths guard with one ``is not None`` branch,
* :func:`span` hands out a shared no-op context manager,
* nothing in this package reads or writes virtual time, RNG streams or
  the event trace; with metrics on or off, per-seed trace dumps are
  byte-identical.

Enable programmatically (before constructing simulators/recorders)::

    from repro import obs
    obs.set_metrics_enabled(True)
    obs.set_spans_enabled(True)

or via ``ATS_METRICS=1`` in the environment, or with the CLI flags
``ats run ... --metrics-out FILE --chrome-trace FILE`` / ``ats
metrics``.  See ``docs/OBSERVABILITY.md``.
"""

from .chrome import build_chrome_trace, write_chrome_trace
from .export import SNAPSHOT_QUANTILES, to_json, to_json_str, to_prometheus
from .instruments import (
    analysis_metrics,
    archive_metrics,
    fault_metrics,
    kernel_metrics,
    omp_metrics,
    service_metrics,
    trace_metrics,
    transport_metrics,
)
from .merge import merge_state, registry_state, state_delta
from .metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    get_registry,
    metrics_enabled,
    quantile_from_counts,
    reset_metrics,
    set_metrics_enabled,
)
from .spans import (
    Span,
    SpanLog,
    reset_spans,
    set_spans_enabled,
    span,
    span_log,
    spans_enabled,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "SNAPSHOT_QUANTILES",
    "Span",
    "SpanLog",
    "analysis_metrics",
    "archive_metrics",
    "build_chrome_trace",
    "fault_metrics",
    "get_registry",
    "kernel_metrics",
    "merge_state",
    "metrics_enabled",
    "omp_metrics",
    "quantile_from_counts",
    "registry_state",
    "reset_metrics",
    "reset_spans",
    "service_metrics",
    "set_metrics_enabled",
    "set_spans_enabled",
    "span",
    "span_log",
    "spans_enabled",
    "state_delta",
    "to_json",
    "to_json_str",
    "to_prometheus",
    "trace_metrics",
    "transport_metrics",
    "write_chrome_trace",
]
