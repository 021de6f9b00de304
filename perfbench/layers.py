"""Timing wrappers around the program's layer entry points.

The benchmark never edits the program.  It times its own calls into
each layer by replacing the layer's public function on the module or
class that *callers look it up on* -- ``repro.synth.campaign`` imports
``write_trace``/``read_trace``/``analyze_run``/``analyze_events`` by
name, so those are patched there, not at their definition.  Each
wrapped call adds its wall time to a per-layer total and, in a traced
run, a span to the :mod:`repro.obs` span log, which the Chrome export
and the self-time arithmetic read.
"""

from __future__ import annotations

import functools
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional

from common import SpanTuple

#: span category of the benchmark's own spans
CAT = "perfbench"


class Recorder:
    """Per-layer wall time, call counts and amounts; thread-safe."""

    def __init__(self, spans: bool = False) -> None:
        self.spans = spans
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.amount: Dict[str, float] = {}
        #: per-call durations, for layers asked to keep them
        self.samples: Dict[str, List[float]] = {}
        self.rows = 0
        self.unique_rows = 0
        self._lock = threading.Lock()

    def add(
        self,
        layer: str,
        t0: float,
        t1: float,
        amount: float = 0.0,
        keep: bool = False,
    ) -> None:
        with self._lock:
            self.seconds[layer] = self.seconds.get(layer, 0.0) + (t1 - t0)
            self.calls[layer] = self.calls.get(layer, 0) + 1
            if amount:
                self.amount[layer] = self.amount.get(layer, 0.0) + amount
            if keep:
                self.samples.setdefault(layer, []).append(t1 - t0)
        if self.spans:
            from repro.obs import span_log

            span_log().record(layer, CAT, t0, t1)

    def timed(
        self,
        layer: str,
        fn: Callable,
        consume: bool = False,
        measure: Optional[Callable] = None,
        keep: bool = False,
    ) -> Callable:
        """``fn`` wrapped to account its calls to ``layer``.

        ``consume`` drains a returned iterator inside the timed region
        (detectors are generators); ``measure`` maps the result to an
        amount (events, bytes) added to the layer.
        """
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            if consume:
                out = list(out)
            t1 = perf_counter()
            rec.add(layer, t0, t1, measure(out) if measure else 0.0, keep)
            return out

        return wrapper

    def patch(self, owner, attr: str, layer: str, **kwargs) -> None:
        setattr(owner, attr, self.timed(layer, getattr(owner, attr), **kwargs))

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "seconds": dict(self.seconds),
                "calls": dict(self.calls),
                "amount": dict(self.amount),
                "rows": self.rows,
                "unique_rows": self.unique_rows,
            }


def _events(run) -> int:
    return len(run.events)


def install_cell_probes(rec: Recorder) -> None:
    """Time each campaign cell's analysis and archive write.

    Untraced campaign runs install only these two (a clock read per
    call), since ``cold_p50_ms`` and ``write_p50_ms`` come from them.
    """
    from repro.archive import api as archive_api
    from repro.synth import campaign

    rec.patch(campaign, "analyze_run", "analysis.analyze", keep=True)
    rec.patch(campaign, "analyze_events", "analysis.analyze", keep=True)
    rec.patch(archive_api.Archive, "record", "archive.record", keep=True)


def install(rec: Recorder) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    install_cell_probes(rec)
    from repro.analysis import DEFAULT_DETECTORS
    from repro.analysis import analyzer
    from repro.archive import api as archive_api
    from repro.archive import cache as archive_cache
    from repro.archive.store import ArchiveStore
    from repro.core import composite
    from repro.core.registry import PropertySpec
    from repro.resilience.checkpoint import CheckpointJournal
    from repro.service.journal import ServiceJournal
    from repro.stats import detector as stats_detector
    from repro.synth import campaign
    from repro.trace import io as trace_io

    # core: whole simulated runs (simkernel + simmpi + simomp + trace
    # recording all happen inside)
    rec.patch(PropertySpec, "run", "core.run", measure=_events)
    rec.patch(composite, "run_chain", "core.run", measure=_events)

    # trace: encoding, and the campaign's fault round trip
    encode = rec.timed("trace.encode", trace_io.events_to_jsonl, measure=len)
    trace_io.events_to_jsonl = encode
    archive_api.events_to_jsonl = encode
    rec.patch(campaign, "write_trace", "trace.roundtrip")
    rec.patch(campaign, "read_trace", "trace.roundtrip")

    # analysis: the index build wherever it happens, and every rule
    # detector (generators: drained inside the timed region)
    for module in (analyzer, archive_cache):
        module.TraceIndex = _timed_index(rec, module.TraceIndex)
    for cls in {type(d) for d in DEFAULT_DETECTORS}:
        rec.patch(cls, "detect", "analysis.rule", consume=True)

    # stats: feature derivation and clustering, plus how many of the
    # clustered rows were distinct
    rec.patch(stats_detector, "behavior_matrix", "stats.features")
    cluster = rec.timed("stats.cluster", stats_detector.cluster_rows)

    @functools.wraps(cluster)
    def cluster_rows(rows, *args, **kwargs):
        with rec._lock:
            rec.rows += len(rows)
            rec.unique_rows += len({tuple(r) for r in rows})
        return cluster(rows, *args, **kwargs)

    stats_detector.cluster_rows = cluster_rows

    # archive, resilience, service journal
    rec.patch(ArchiveStore, "put_named", "archive.put_named")
    rec.patch(CheckpointJournal, "record", "resilience.checkpoint")
    rec.patch(ServiceJournal, "record_state", "service.journal")

    # synth: scenario generation (scoring is timed by the caller)
    rec.patch(campaign, "generate_scenarios", "synth.generate")


def _timed_index(rec: Recorder, base: type) -> type:
    class TimedTraceIndex(base):
        def __init__(self, *args, **kwargs):
            t0 = perf_counter()
            super().__init__(*args, **kwargs)
            rec.add("analysis.index", t0, perf_counter())

    TimedTraceIndex.__name__ = base.__name__
    TimedTraceIndex.__qualname__ = base.__qualname__
    return TimedTraceIndex


# ----------------------------------------------------------------------
# reading the program's own obs counters
# ----------------------------------------------------------------------


def obs_totals(snapshot: dict) -> Dict[str, dict]:
    """``name -> {"value", "sum", "count"}`` summed over label sets.

    ``snapshot`` is a :func:`repro.obs.to_json` document (the shape
    ``/metrics.json`` serves too).
    """
    out: Dict[str, dict] = {}
    for family in snapshot.get("metrics", ()):
        agg = {"value": 0.0, "sum": 0.0, "count": 0.0, "labels": {}}
        for sample in family.get("samples", ()):
            if "value" in sample:
                agg["value"] += sample["value"]
                key = ",".join(
                    f"{k}={v}" for k, v in sorted(sample["labels"].items())
                )
                agg["labels"][key] = sample["value"]
            else:
                agg["sum"] += sample.get("sum", 0.0)
                agg["count"] += sample.get("count", 0)
        out[family["name"]] = agg
    return out


def _value(totals: dict, name: str) -> float:
    return totals.get(name, {}).get("value", 0.0)


def _mean(totals: dict, name: str) -> float:
    fam = totals.get(name)
    if not fam or not fam["count"]:
        return 0.0
    return fam["sum"] / fam["count"]


def _label(totals: dict, name: str, label: str) -> float:
    return totals.get(name, {}).get("labels", {}).get(label, 0.0)


def layer_metrics(
    rec: dict, totals: dict, spans: List[SpanTuple], cells_s: float
) -> Dict[str, float]:
    """Per-layer metrics from wrapper totals and obs counters.

    ``rec`` is :meth:`Recorder.to_dict`; ``totals`` is
    :func:`obs_totals`; ``spans`` are the benchmark's own spans, for
    the self-time of campaign cells; ``cells_s`` is the summed cell
    wall time (0 where the workload runs no campaign cells).
    """
    from common import self_times

    sec = rec["seconds"]
    calls = rec["calls"]
    amount = rec["amount"]
    posted = _label(totals, "ats_mpi_matches_total", "order=posted")
    unexpected = _label(totals, "ats_mpi_matches_total", "order=unexpected")
    hits = _value(totals, "ats_archive_hits_total")
    misses = _value(totals, "ats_archive_misses_total")
    own = self_times(spans)
    return {
        "core.run_s": sec.get("core.run", 0.0),
        "core.events": amount.get("core.run", 0.0),
        "simkernel.dispatches": _value(totals, "ats_sim_dispatches_total"),
        "simkernel.handoffs": _value(totals, "ats_sim_handoffs_total"),
        "simkernel.threads_spawned": _value(
            totals, "ats_workers_spawned_total"
        ),
        "simmpi.messages": _value(totals, "ats_mpi_messages_total"),
        "simmpi.unexpected_frac": (
            unexpected / (posted + unexpected) if posted + unexpected else 0.0
        ),
        "simmpi.posted_queue_mean": _mean(
            totals, "ats_mpi_posted_queue_length"
        ),
        "simmpi.unexpected_queue_mean": _mean(
            totals, "ats_mpi_unexpected_queue_length"
        ),
        "simomp.teams": _value(totals, "ats_omp_teams_forked_total"),
        "trace.encode_s": sec.get("trace.encode", 0.0),
        "trace.bytes": amount.get("trace.encode", 0.0),
        "trace.roundtrip_s": sec.get("trace.roundtrip", 0.0),
        "trace.roundtrip_frac": (
            sec.get("trace.roundtrip", 0.0) / cells_s if cells_s else 0.0
        ),
        "analysis.index_s": sec.get("analysis.index", 0.0),
        "analysis.rule_s": sec.get("analysis.rule", 0.0),
        "stats.features_s": sec.get("stats.features", 0.0),
        "stats.cluster_s": sec.get("stats.cluster", 0.0),
        "stats.unique_row_frac": (
            rec["unique_rows"] / rec["rows"] if rec["rows"] else 0.0
        ),
        "archive.record_s": sec.get("archive.record", 0.0),
        "archive.put_named": float(calls.get("archive.put_named", 0)),
        "archive.put_named_s": sec.get("archive.put_named", 0.0),
        "archive.hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        "resilience.checkpoint_s": sec.get("resilience.checkpoint", 0.0),
        "resilience.retries": _value(totals, "ats_resilience_retries_total"),
        "resilience.failures": _value(
            totals, "ats_resilience_failures_total"
        ),
        "synth.generate_s": sec.get("synth.generate", 0.0),
        "synth.score_s": sec.get("synth.score", 0.0),
        "synth.self_s": own.get("synth.cell", 0.0),
        "service.journal_s": sec.get("service.journal", 0.0),
        "service.coalesced": _value(totals, "ats_service_coalesced_total"),
        "service.queue_wait_ms": 1e3 * _mean(
            totals, "ats_service_queue_wait_seconds"
        ),
    }


def own_spans(log) -> List[SpanTuple]:
    """The benchmark's spans from a :class:`repro.obs.SpanLog`."""
    return [
        (sp.name, sp.start, sp.start + sp.duration, sp.tid)
        for sp in log
        if sp.cat == CAT
    ]
