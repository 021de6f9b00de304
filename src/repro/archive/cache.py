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

:func:`lookup_archived` is the read-and-assemble half alone: the
result when every cell is stored, else ``None`` with nothing counted.
:func:`analyze_archived` runs that same assembly first and computes
only on a miss.  The default battery's cell keys are memoized per
:class:`~repro.analysis.AnalysisConfig`
(:func:`~repro.archive.fingerprint.default_detector_fingerprints`), so
a warm analyze hashes no detector.

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
from typing import Optional, Sequence, Tuple

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
from .fingerprint import default_detector_fingerprints, detector_fingerprint
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


def count_lookup(
    stats: Optional[CacheStats], stage: str, hit: bool, n: int = 1
) -> None:
    """Count ``n`` cache lookups into ``stats`` and the archive metrics."""
    if stats is not None:
        stats.count(hit, n)
    metrics = archive_metrics()
    if metrics is not None:
        family = metrics.hits if hit else metrics.misses
        family.labels(stage=stage).inc(n)


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


def _battery(
    record: dict,
    detectors: Optional[Sequence],
    config: Optional[AnalysisConfig],
) -> Tuple[Sequence, AnalysisConfig]:
    """The battery and config an analyze of ``record`` runs under."""
    detectors = DEFAULT_DETECTORS if detectors is None else detectors
    if config is None:
        eager = record.get("eager_threshold")
        config = (
            AnalysisConfig(eager_threshold=eager)
            if eager is not None
            else AnalysisConfig()
        )
    return detectors, config


def _cell_keys(
    trace_digest: str, detectors: Sequence, config: AnalysisConfig
) -> list[str]:
    fingerprints = (
        default_detector_fingerprints(config)
        if detectors is DEFAULT_DETECTORS
        else [detector_fingerprint(d, config) for d in detectors]
    )
    return [cell_key(trace_digest, fp) for fp in fingerprints]


def _assemble(
    cached: dict,
    keys: Sequence[str],
    mkey: str,
    stats: Optional[CacheStats],
) -> Optional[AnalysisResult]:
    """The result from stored cells alone; ``None`` (uncounted) on a miss.

    Lookups are counted only once every cell has decoded.
    """
    payloads = [cached.get(key) for key in keys]
    meta = cached.get(mkey)
    if meta is None or any(payload is None for payload in payloads):
        return None
    findings: list[Finding] = []
    for payload in payloads:
        findings.extend(findings_from_list(payload))
    total_time, locations = meta_from_dict(meta)
    if payloads:
        count_lookup(stats, "detector", True, len(payloads))
    count_lookup(stats, "meta", True)
    return AnalysisResult(
        findings=findings,
        total_time=total_time,
        locations=list(locations),
        comm_registry={},
    )


def lookup_archived(
    store: ArchiveStore,
    record: dict,
    detectors: Optional[Sequence] = None,
    config: Optional[AnalysisConfig] = None,
    stats: Optional[CacheStats] = None,
) -> Optional[AnalysisResult]:
    """The read-and-assemble half of :func:`analyze_archived`.

    Reads the trace's cell file once and assembles the result when
    every cell is stored, counting each lookup as a hit.  On any miss
    it returns ``None`` and counts nothing, so a caller that falls
    back to :func:`analyze_archived` counts each lookup once.  It
    never reads the trace blob or runs a detector.
    """
    detectors, config = _battery(record, detectors, config)
    trace_digest = record["trace_digest"]
    return _assemble(
        store.get_named(trace_digest),
        _cell_keys(trace_digest, detectors, config),
        meta_key(trace_digest),
        stats,
    )


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
    A fully warm analyze is :func:`lookup_archived`'s read and
    assembly; only a miss reads the trace blob.
    """
    detectors, config = _battery(record, detectors, config)
    trace_digest = record["trace_digest"]
    cached = store.get_named(trace_digest)
    keys = _cell_keys(trace_digest, detectors, config)
    mkey = meta_key(trace_digest)
    result = _assemble(cached, keys, mkey, stats)
    if result is not None:
        return result

    cells: list[Optional[list[Finding]]] = []
    for key in keys:
        payload = cached.get(key)
        count_lookup(stats, "detector", payload is not None)
        cells.append(None if payload is None else findings_from_list(payload))

    meta = cached.get(mkey)
    count_lookup(stats, "meta", meta is not None)
    if meta is not None:
        total_time, locations = meta_from_dict(meta)
    else:
        total_time, locations = record["final_time"], None

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
