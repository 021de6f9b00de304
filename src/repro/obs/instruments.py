"""Per-subsystem instrument bundles.

Each runtime layer binds its metrics once, at object construction, by
calling the matching ``*_metrics()`` accessor:

* enabled  -> a small ``__slots__`` bundle of pre-declared (and, for
  labeled families, pre-bound) metric children, cached per registry so
  every simulator / engine / recorder in the process shares one set of
  counters,
* disabled -> ``None``, so hot paths guard with a single
  ``is not None`` branch and never allocate.

Keeping the declarations here -- rather than scattered through the
runtime layers -- gives one place that documents the whole metric
surface, and keeps :mod:`repro.obs.metrics` free of domain knowledge.
"""

from __future__ import annotations

from typing import Optional

from .metrics import (
    MetricsRegistry,
    get_registry,
    metrics_enabled,
)

__all__ = [
    "AnalysisMetrics",
    "ArchiveMetrics",
    "FaultMetrics",
    "KernelMetrics",
    "OmpMetrics",
    "ResilienceMetrics",
    "ServiceMetrics",
    "StatsMetrics",
    "TraceMetrics",
    "TransportMetrics",
    "analysis_metrics",
    "archive_metrics",
    "fault_metrics",
    "kernel_metrics",
    "omp_metrics",
    "resilience_metrics",
    "service_metrics",
    "stats_metrics",
    "trace_metrics",
    "transport_metrics",
]

#: queue-depth style histograms: small-integer buckets
_DEPTH_BUCKETS = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256)
#: virtual-seconds latency buckets (transport latency is ~5us)
_VSEC_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)
#: host wall-clock latency buckets for service endpoints; the fine
#: 1-50ms region is where warm-cache analyzes land
_WALL_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 10.0,
)


def _bundle(key: str, factory):
    """Cached per-registry bundle, or ``None`` while metrics are off."""
    if not metrics_enabled():
        return None
    registry = get_registry()
    bundle = registry._bundles.get(key)
    if bundle is None:
        bundle = registry._bundles[key] = factory(registry)
    return bundle


# ----------------------------------------------------------------------
# simkernel
# ----------------------------------------------------------------------

class KernelMetrics:
    """Scheduler and worker-pool metrics (one bundle per registry)."""

    __slots__ = (
        "dispatches",
        "continuations",
        "handoffs",
        "queue_depth",
        "processes",
    )

    def __init__(self, reg: MetricsRegistry) -> None:
        self.dispatches = reg.counter(
            "ats_sim_dispatches_total",
            "Scheduler dispatch steps across all simulators",
        )
        self.continuations = reg.counter(
            "ats_sim_direct_continuations_total",
            "Dispatches resolved on the same thread (zero handoffs)",
        )
        self.handoffs = reg.counter(
            "ats_sim_handoffs_total",
            "Dispatches that woke another worker thread (lock handoff)",
        )
        self.queue_depth = reg.histogram(
            "ats_sim_run_queue_depth",
            "Runnable entries (FIFO + heap) observed at each dispatch",
            buckets=_DEPTH_BUCKETS,
        )
        self.processes = reg.counter(
            "ats_sim_processes_total",
            "Simulated processes spawned",
        )
        reg.register_collector(_collect_worker_pool)


def _collect_worker_pool(reg: MetricsRegistry) -> None:
    """Harvest the process-global worker pool's plain-int counters."""
    from ..simkernel.process import worker_pool

    pool = worker_pool()
    reg.counter(
        "ats_workers_spawned_total", "Worker OS threads ever created"
    ).set_total(pool.created)
    reg.counter(
        "ats_workers_reused_total",
        "Process dispatches served by a recycled pooled worker",
    ).set_total(pool.reused)
    reg.gauge(
        "ats_workers_parked", "Currently parked (idle, reusable) workers"
    ).set(pool.parked)


def kernel_metrics() -> Optional[KernelMetrics]:
    return _bundle("kernel", KernelMetrics)


# ----------------------------------------------------------------------
# simmpi transport
# ----------------------------------------------------------------------

class TransportMetrics:
    """Point-to-point transport metrics."""

    __slots__ = (
        "msg_eager",
        "msg_rendezvous",
        "bytes",
        "match_posted",
        "match_unexpected",
        "posted_queue",
        "unexpected_queue",
        "match_latency",
    )

    def __init__(self, reg: MetricsRegistry) -> None:
        messages = reg.counter(
            "ats_mpi_messages_total",
            "Point-to-point messages posted, by protocol",
            labelnames=("protocol",),
        )
        self.msg_eager = messages.labels(protocol="eager")
        self.msg_rendezvous = messages.labels(protocol="rendezvous")
        self.bytes = reg.counter(
            "ats_mpi_bytes_total", "Payload bytes delivered"
        )
        matches = reg.counter(
            "ats_mpi_matches_total",
            "Completed matches, by which side was posted first",
            labelnames=("order",),
        )
        self.match_posted = matches.labels(order="posted")
        self.match_unexpected = matches.labels(order="unexpected")
        self.posted_queue = reg.histogram(
            "ats_mpi_posted_queue_length",
            "Posted-receive queue length after an unmatched recv post",
            buckets=_DEPTH_BUCKETS,
        )
        self.unexpected_queue = reg.histogram(
            "ats_mpi_unexpected_queue_length",
            "Unexpected-message queue length after an unmatched send",
            buckets=_DEPTH_BUCKETS,
        )
        self.match_latency = reg.histogram(
            "ats_mpi_match_latency_seconds",
            "Virtual seconds between send post and envelope match",
            buckets=_VSEC_BUCKETS,
        )


def transport_metrics() -> Optional[TransportMetrics]:
    return _bundle("transport", TransportMetrics)


# ----------------------------------------------------------------------
# simomp
# ----------------------------------------------------------------------

class OmpMetrics:
    """OpenMP team fork/join and barrier metrics."""

    __slots__ = ("forks", "joins", "barrier_waits", "barrier_wait_seconds")

    def __init__(self, reg: MetricsRegistry) -> None:
        self.forks = reg.counter(
            "ats_omp_teams_forked_total", "Parallel-region teams forked"
        )
        self.joins = reg.counter(
            "ats_omp_teams_joined_total", "Parallel-region teams joined"
        )
        self.barrier_waits = reg.counter(
            "ats_omp_barrier_waits_total",
            "Per-thread team-barrier arrivals (explicit and implicit)",
        )
        self.barrier_wait_seconds = reg.histogram(
            "ats_omp_barrier_wait_seconds",
            "Virtual seconds each thread waited at a team barrier",
            buckets=_VSEC_BUCKETS,
        )


def omp_metrics() -> Optional[OmpMetrics]:
    return _bundle("omp", OmpMetrics)


# ----------------------------------------------------------------------
# trace
# ----------------------------------------------------------------------

class TraceMetrics:
    """Recorder metrics.

    Event counts and interning statistics are *harvested* from the
    recorder's plain-int bookkeeping when a run finishes
    (:meth:`harvest_recorder`), so the per-event recording path carries
    no metric code at all.
    """

    __slots__ = (
        "events",
        "intern_requests",
        "intern_entries",
    )

    def __init__(self, reg: MetricsRegistry) -> None:
        self.events = reg.counter(
            "ats_trace_events_total",
            "Trace events recorded, by event kind",
            labelnames=("kind",),
        )
        self.intern_requests = reg.counter(
            "ats_trace_intern_requests_total",
            "Call-path intern lookups (hit rate = 1 - entries/requests)",
        )
        self.intern_entries = reg.counter(
            "ats_trace_intern_entries_total",
            "Distinct interned call-path tuples",
        )

    def harvest_recorder(self, recorder) -> None:
        """Fold one finished recorder's bookkeeping into the registry."""
        kinds: dict[str, int] = {}
        for event in recorder.events:
            kind = event.kind
            kinds[kind] = kinds.get(kind, 0) + 1
        for kind, count in kinds.items():
            self.events.labels(kind=kind).inc(count)
        self.intern_requests.inc(recorder.intern_requests)
        self.intern_entries.inc(len(recorder._interned))


def trace_metrics() -> Optional[TraceMetrics]:
    return _bundle("trace", TraceMetrics)


# ----------------------------------------------------------------------
# faults
# ----------------------------------------------------------------------

class FaultMetrics:
    """Fault-injection activity counters (see :mod:`repro.faults`)."""

    __slots__ = (
        "holds_jittered",
        "jitter_seconds",
        "straggler_seconds",
        "latency_noise_seconds",
        "messages_reordered",
        "records_dropped",
        "records_duplicated",
        "truncations",
    )

    def __init__(self, reg: MetricsRegistry) -> None:
        self.holds_jittered = reg.counter(
            "ats_fault_holds_jittered_total",
            "Scheduler holds perturbed by timing jitter",
        )
        self.jitter_seconds = reg.counter(
            "ats_fault_jitter_seconds_total",
            "Absolute virtual seconds of timing jitter applied",
        )
        self.straggler_seconds = reg.counter(
            "ats_fault_straggler_seconds_total",
            "Extra virtual seconds added to straggler-rank holds",
        )
        self.latency_noise_seconds = reg.counter(
            "ats_fault_latency_noise_seconds_total",
            "Extra virtual wire seconds added to p2p transfers",
        )
        self.messages_reordered = reg.counter(
            "ats_fault_messages_reordered_total",
            "Unmatched sends displaced in the matching queue",
        )
        self.records_dropped = reg.counter(
            "ats_fault_records_dropped_total",
            "Trace records dropped at write time",
        )
        self.records_duplicated = reg.counter(
            "ats_fault_records_duplicated_total",
            "Trace records written twice at write time",
        )
        self.truncations = reg.counter(
            "ats_fault_trace_truncations_total",
            "Trace files truncated mid-file on close",
        )


def fault_metrics() -> Optional[FaultMetrics]:
    return _bundle("faults", FaultMetrics)


# ----------------------------------------------------------------------
# resilience
# ----------------------------------------------------------------------

class ResilienceMetrics:
    """Supervised-sweep activity: cells, retries, timeouts, quarantines."""

    __slots__ = (
        "cells",
        "retries",
        "timeouts",
        "backoff_seconds",
        "failures",
    )

    def __init__(self, reg: MetricsRegistry) -> None:
        self.cells = reg.counter(
            "ats_resilience_cells_total",
            "Sweep cells resolved, by outcome (ok/failed/resumed)",
            labelnames=("status",),
        )
        self.retries = reg.counter(
            "ats_resilience_retries_total",
            "Cell attempts repeated after a transient failure",
        )
        self.timeouts = reg.counter(
            "ats_resilience_timeouts_total",
            "Cell attempts abandoned at the wall-clock limit",
        )
        self.backoff_seconds = reg.counter(
            "ats_resilience_backoff_seconds_total",
            "Host wall seconds slept in retry backoff",
        )
        self.failures = reg.counter(
            "ats_resilience_failures_total",
            "Cells quarantined, by failure kind",
            labelnames=("kind",),
        )


def resilience_metrics() -> Optional[ResilienceMetrics]:
    return _bundle("resilience", ResilienceMetrics)


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------

class AnalysisMetrics:
    """Analyzer pipeline metrics."""

    __slots__ = (
        "runs",
        "index_build_seconds",
        "detector_seconds",
        "findings",
    )

    def __init__(self, reg: MetricsRegistry) -> None:
        self.runs = reg.counter(
            "ats_analysis_runs_total", "analyze_events invocations"
        )
        self.index_build_seconds = reg.counter(
            "ats_analysis_index_build_seconds_total",
            "Host wall seconds spent building TraceIndex instances",
        )
        self.detector_seconds = reg.counter(
            "ats_analysis_detector_seconds_total",
            "Host wall seconds per detector",
            labelnames=("detector",),
        )
        self.findings = reg.counter(
            "ats_analysis_findings_total",
            "Findings emitted, by performance property",
            labelnames=("property",),
        )


def analysis_metrics() -> Optional[AnalysisMetrics]:
    return _bundle("analysis", AnalysisMetrics)


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------

class ServiceMetrics:
    """Analysis-service instruments (see :mod:`repro.service`).

    Per-endpoint request latency is a labeled histogram over
    ``_WALL_BUCKETS``; ``/status`` derives p50/p99 from it via
    :meth:`Histogram.quantile`.  ``queue_depth``
    and ``inflight`` are gauges maintained by the job queue;
    ``coalesced`` counts submissions deduplicated onto an in-flight
    identical job, ``executed`` the jobs that actually computed.
    """

    __slots__ = (
        "requests",
        "request_seconds",
        "queue_depth",
        "inflight",
        "jobs",
        "coalesced",
        "executed",
        "rate_limited",
        "queue_wait_seconds",
        "cache_hits",
        "cache_misses",
        "journal_records",
        "recovered",
        "expired",
        "breaker_transitions",
        "breaker_open_cells",
    )

    def __init__(self, reg: MetricsRegistry) -> None:
        self.requests = reg.counter(
            "ats_service_requests_total",
            "HTTP requests served, by endpoint and status code",
            labelnames=("endpoint", "code"),
        )
        self.request_seconds = reg.histogram(
            "ats_service_request_seconds",
            "Wall-clock request latency, by endpoint",
            labelnames=("endpoint",),
            buckets=_WALL_BUCKETS,
        )
        self.queue_depth = reg.gauge(
            "ats_service_queue_depth",
            "Jobs waiting in the work queue",
        )
        self.inflight = reg.gauge(
            "ats_service_inflight_jobs",
            "Jobs currently executing on pooled workers",
        )
        self.jobs = reg.counter(
            "ats_service_jobs_total",
            "Jobs resolved, by kind and final status",
            labelnames=("kind", "status"),
        )
        self.coalesced = reg.counter(
            "ats_service_coalesced_total",
            "Submissions coalesced onto an identical in-flight job",
        )
        self.executed = reg.counter(
            "ats_service_jobs_executed_total",
            "Jobs that actually ran a computation (coalescing primary)",
        )
        self.rate_limited = reg.counter(
            "ats_service_rate_limited_total",
            "Submissions rejected 429 by the per-tenant token bucket",
            labelnames=("tenant",),
        )
        self.queue_wait_seconds = reg.histogram(
            "ats_service_queue_wait_seconds",
            "Wall-clock time jobs spent queued before execution",
            buckets=_WALL_BUCKETS,
        )
        self.cache_hits = reg.counter(
            "ats_service_cache_hits_total",
            "Archive analysis-cache hits accumulated across jobs",
        )
        self.cache_misses = reg.counter(
            "ats_service_cache_misses_total",
            "Archive analysis-cache misses accumulated across jobs",
        )
        self.journal_records = reg.counter(
            "ats_service_journal_records_total",
            "State transitions appended to the durable job journal",
        )
        self.recovered = reg.counter(
            "ats_service_recovered_jobs_total",
            "Jobs replayed from the journal at restart, by outcome",
            labelnames=("outcome",),
        )
        self.expired = reg.counter(
            "ats_service_expired_jobs_total",
            "Queued jobs cancelled because their client deadline passed",
        )
        self.breaker_transitions = reg.counter(
            "ats_service_breaker_transitions_total",
            "Circuit-breaker state transitions, by new state",
            labelnames=("state",),
        )
        self.breaker_open_cells = reg.gauge(
            "ats_service_breaker_open_cells",
            "Executor cells currently evicted (open or half-open)",
        )


def service_metrics() -> Optional[ServiceMetrics]:
    return _bundle("service", ServiceMetrics)


# ----------------------------------------------------------------------
# stats
# ----------------------------------------------------------------------

class StatsMetrics:
    """Statistical-analysis pipeline metrics (see :mod:`repro.stats`).

    Feature extraction and clustering are the two stages of every
    similarity detection; dataset export additionally counts the
    (features, labels) rows it emits so an export job's cost is
    visible on ``ats metrics``.
    """

    __slots__ = (
        "feature_seconds",
        "feature_rows",
        "cluster_seconds",
        "export_rows",
        "export_runs",
    )

    def __init__(self, reg: MetricsRegistry) -> None:
        self.feature_seconds = reg.counter(
            "ats_stats_feature_seconds_total",
            "Host wall seconds spent deriving behavior vectors",
        )
        self.feature_rows = reg.counter(
            "ats_stats_feature_rows_total",
            "Behavior vectors (ranks or locations) derived",
        )
        self.cluster_seconds = reg.counter(
            "ats_stats_cluster_seconds_total",
            "Host wall seconds spent in similarity clustering",
        )
        self.export_rows = reg.counter(
            "ats_stats_export_rows_total",
            "Dataset rows emitted by ats export dataset",
        )
        self.export_runs = reg.counter(
            "ats_stats_export_runs_total",
            "Archived runs joined into exported datasets",
        )


def stats_metrics() -> Optional[StatsMetrics]:
    return _bundle("stats", StatsMetrics)


# ----------------------------------------------------------------------
# archive
# ----------------------------------------------------------------------

class ArchiveMetrics:
    """Trace-archive and analysis-cache activity (see :mod:`repro.archive`).

    ``hits``/``misses`` are labeled by cache stage: ``detector`` (one
    per detector cell), ``meta`` (the per-trace summary record) and
    ``trace`` (blob deduplication on archive writes).
    """

    __slots__ = (
        "hits",
        "misses",
        "runs_archived",
        "blob_bytes",
    )

    def __init__(self, reg: MetricsRegistry) -> None:
        self.hits = reg.counter(
            "ats_archive_hits_total",
            "Archive cache lookups served from stored blobs, by stage",
            labelnames=("stage",),
        )
        self.misses = reg.counter(
            "ats_archive_misses_total",
            "Archive cache lookups that required recomputation, by stage",
            labelnames=("stage",),
        )
        self.runs_archived = reg.counter(
            "ats_archive_runs_total",
            "Runs recorded into an archive manifest",
        )
        self.blob_bytes = reg.counter(
            "ats_archive_blob_bytes_total",
            "Compressed bytes written to archive object stores",
        )


def archive_metrics() -> Optional[ArchiveMetrics]:
    return _bundle("archive", ArchiveMetrics)
