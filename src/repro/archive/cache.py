"""The incremental analysis cache: ``analyze_archived``.

Analysis of an archived run is memoized at **detector-cell**
granularity: one cached cell per ``(trace digest, detector
fingerprint)`` plus one per-trace *meta* cell (total time + location
list).  All cells of one trace live in one file of the store
(:meth:`~repro.archive.store.ArchiveStore.get_named`), so an analyze
reads it once and a cold analyze replaces it once, with every cell it
computed.  On a warm cache the trace blob is never even read -- the
result assembles from stored cells alone, which is what makes a full
re-analysis sweep near-pure lookups.  After a detector change, only
that detector's cells miss; every other cell (and the meta cell) still
hits, so re-analysis recomputes exactly the affected column of the
matrix.

A missing cell is computed by :func:`~repro.analysis.analyze_events`
with that one detector over an index of the stored trace, so cached
and fresh findings come from the same detector loop, and archive and
service analyses feed the same ``ats_analysis_*`` metrics and
``analysis:*`` spans as every other analysis.  A cell file that is
torn, garbled or lost reads as all misses, so the worst a crash can
cost is that recompute.

Hits and misses are counted both into the caller-visible
:class:`CacheStats` accumulator and -- when :mod:`repro.obs` is
enabled -- the ``ats_archive_hits_total`` / ``ats_archive_misses_total``
metric families.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence

from ..analysis import AnalysisConfig, DEFAULT_DETECTORS, ANALYZER_VERSION
from ..analysis.analyzer import analyze_events, build_index
from ..analysis.index import TraceIndex
from ..analysis.model import AnalysisResult, Finding
from ..obs.instruments import archive_metrics
from ..trace.events import Event
from ..trace.io import events_from_jsonl
from .codec import (
    findings_from_list,
    findings_to_list,
    meta_from_dict,
    meta_to_dict,
)
from .fingerprint import detector_fingerprint
from .store import ArchiveStore


class CacheStats:
    """Thread-safe hit/miss accumulator for one logical operation."""

    __slots__ = ("hits", "misses", "_lock")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()

    def count(self, hit: bool, n: int = 1) -> None:
        with self._lock:
            if hit:
                self.hits += n
            else:
                self.misses += n

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def format(self) -> str:
        total = self.lookups
        rate = (self.hits / total) if total else 0.0
        return f"cache: {self.hits} hits, {self.misses} misses ({rate:.0%})"


def count_lookup(stats: Optional[CacheStats], stage: str, hit: bool) -> None:
    """Count one cache lookup into ``stats`` and the archive metrics."""
    if stats is not None:
        stats.count(hit)
    metrics = archive_metrics()
    if metrics is not None:
        family = metrics.hits if hit else metrics.misses
        family.labels(stage=stage).inc()


def archived_events(store: ArchiveStore, trace_digest: str) -> list[Event]:
    """Decode one stored trace blob back into its events."""
    events, _ = events_from_jsonl(
        store.get_blob(trace_digest).decode("utf-8"),
        label=f"<archive blob {trace_digest[:12]}>",
    )
    return events


def meta_key(trace_digest: str) -> str:
    return f"meta|{trace_digest}|{ANALYZER_VERSION}"


def cell_key(trace_digest: str, det_fp: str) -> str:
    return f"findings|{trace_digest}|{det_fp}"


def analyze_archived(
    store: ArchiveStore,
    record: dict,
    detectors: Optional[Sequence] = None,
    config: Optional[AnalysisConfig] = None,
    stats: Optional[CacheStats] = None,
) -> AnalysisResult:
    """Analyze one manifest record, reusing every valid cached cell.

    ``record`` is the manifest payload of the run (see
    :class:`~repro.archive.api.ArchivedRun`); the analyzer
    configuration defaults to the run's recorded eager threshold, like
    a tool configured for the system the trace came from.  The result
    is byte-identical (canonical JSON) to a fresh
    ``analyze_events(events, total_time=record final time)`` over the
    stored trace, whether it was assembled from cache or computed.
    """
    detectors = DEFAULT_DETECTORS if detectors is None else detectors
    if config is None:
        eager = record.get("eager_threshold")
        config = (
            AnalysisConfig(eager_threshold=eager)
            if eager is not None
            else AnalysisConfig()
        )
    trace_digest = record["trace_digest"]
    cached = store.get_named(trace_digest)

    cells: list[Optional[list[Finding]]] = []
    keys: list[str] = []
    for detector in detectors:
        key = cell_key(trace_digest, detector_fingerprint(detector, config))
        keys.append(key)
        payload = cached.get(key)
        count_lookup(stats, "detector", payload is not None)
        cells.append(None if payload is None else findings_from_list(payload))

    mkey = meta_key(trace_digest)
    meta = cached.get(mkey)
    count_lookup(stats, "meta", meta is not None)
    if meta is not None:
        total_time, locations = meta_from_dict(meta)
    else:
        total_time, locations = record["final_time"], None

    if any(cell is None for cell in cells) or locations is None:
        index = build_index(TraceIndex, archived_events(store, trace_digest))
        computed = {}
        for i, detector in enumerate(detectors):
            if cells[i] is None:
                found = analyze_events(
                    index, config=config, detectors=[detector]
                ).findings
                computed[keys[i]] = findings_to_list(found)
                cells[i] = found
        if locations is None:
            locations = list(index.locations)
            total_time = record["final_time"]
            computed[mkey] = meta_to_dict(total_time, locations)
        store.put_named(trace_digest, computed)

    findings: list[Finding] = []
    for cell in cells:
        findings.extend(cell)
    return AnalysisResult(
        findings=findings,
        total_time=total_time,
        locations=list(locations),
        comm_registry={},
    )
