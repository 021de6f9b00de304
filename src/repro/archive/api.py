"""The high-level archive API: record runs, analyze with cache, diff.

:class:`Archive` is the user-facing object behind ``ats archive
run|analyze``, ``ats history`` and ``ats diff``: a directory-backed
store where every run is identified by a short deterministic ``run_id``
(digest of its identity tuple: program, params, procs/threads, seed,
fault plan) and every trace by its content digest.  Re-archiving the
same identity supersedes the manifest record but -- identical runs
being byte-identical -- lands on the very same trace blob.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..analysis import AnalysisConfig, DEFAULT_DETECTORS
from ..analysis.analyzer import ANALYZER_VERSION
from ..analysis.compare import ComparisonReport, compare_analyses
from ..analysis.model import AnalysisResult
from ..core.registry import DistParam, PropertySpec
from ..obs.instruments import archive_metrics
from ..trace.events import Event
from ..trace.io import events_to_jsonl, gzip_bytes
from .cache import CacheStats, analyze_archived
from .fingerprint import detector_set_fingerprint
from .store import ArchiveError, ArchiveStore, canonical_json, sha256_hex

#: run_id length: 12 hex chars of the identity digest (collision odds
#: are negligible at archive scale, and ids stay grep-friendly)
RUN_ID_LEN = 12


def params_to_jsonable(params: Optional[dict]) -> dict:
    """Registry params (possibly DistParam-valued) as plain JSON."""
    out: dict = {}
    for key, value in sorted((params or {}).items()):
        if isinstance(value, DistParam):
            out[key] = {"dist": [value.shape, list(value.values)]}
        else:
            out[key] = value
    return out


@dataclass(frozen=True)
class ArchivedRun:
    """One manifest record: a run's identity plus trace provenance."""

    run_id: str
    program: str
    paradigm: str
    params: dict
    size: int
    threads: int
    seed: int
    plan: Optional[dict]
    trace_digest: str
    events: int
    final_time: float
    eager_threshold: Optional[int]
    detector_set: str
    analyzer_version: str
    #: optional ground-truth manifest (synthesized runs only): expected
    #: properties, locations and severity bands sampled by repro.synth
    manifest: Optional[dict] = None

    def to_payload(self) -> dict:
        payload = {
            "program": self.program,
            "paradigm": self.paradigm,
            "params": self.params,
            "size": self.size,
            "threads": self.threads,
            "seed": self.seed,
            "plan": self.plan,
            "trace_digest": self.trace_digest,
            "events": self.events,
            "final_time": self.final_time,
            "eager_threshold": self.eager_threshold,
            "detector_set": self.detector_set,
            "analyzer_version": self.analyzer_version,
        }
        # Only synthesized runs carry ground truth; leaving the key out
        # otherwise keeps pre-existing manifest journals byte-stable.
        if self.manifest is not None:
            payload["manifest"] = self.manifest
        return payload

    @classmethod
    def from_payload(cls, run_id: str, payload: dict) -> "ArchivedRun":
        return cls(
            run_id=run_id,
            program=payload["program"],
            paradigm=payload.get("paradigm", ""),
            params=payload.get("params", {}),
            size=payload.get("size", 0),
            threads=payload.get("threads", 0),
            seed=payload.get("seed", 0),
            plan=payload.get("plan"),
            trace_digest=payload["trace_digest"],
            events=payload.get("events", 0),
            final_time=payload["final_time"],
            eager_threshold=payload.get("eager_threshold"),
            detector_set=payload.get("detector_set", ""),
            analyzer_version=payload.get("analyzer_version", ""),
            manifest=payload.get("manifest"),
        )


def run_identity(
    program: str,
    params: dict,
    size: int,
    threads: int,
    seed: int,
    plan: Optional[dict],
) -> str:
    """Deterministic run_id of one identity tuple."""
    identity = canonical_json(
        {
            "program": program,
            "params": params,
            "size": size,
            "threads": threads,
            "seed": seed,
            "plan": plan,
        }
    )
    return sha256_hex(identity)[:RUN_ID_LEN]


class Archive:
    """A trace archive rooted at one directory (created lazily)."""

    def __init__(self, root: Union[str, Path], fsync: bool = False):
        self.store = ArchiveStore(root, fsync=fsync)

    @property
    def root(self) -> Path:
        return self.store.root

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def record(
        self,
        program: str,
        events: Sequence[Event],
        final_time: float,
        paradigm: str = "",
        params: Optional[dict] = None,
        size: int = 0,
        threads: int = 0,
        seed: int = 0,
        plan: Optional[dict] = None,
        eager_threshold: Optional[int] = None,
        manifest: Optional[dict] = None,
    ) -> ArchivedRun:
        """Archive an event stream; every archive write comes through here.

        ``params`` must already be JSON-safe (see
        :func:`params_to_jsonable`); ``plan`` is a FaultPlan dict or
        None; ``manifest`` is a synthesized run's ground-truth dict.
        Returns the manifest record, with the trace stored (or
        deduplicated) as a content-addressed blob.
        """
        params = params or {}
        text = events_to_jsonl(
            events, metadata={"program": program, "seed": seed}
        )
        trace_digest = self.store.put_blob(text.encode("utf-8"))
        run_id = run_identity(program, params, size, threads, seed, plan)
        run = ArchivedRun(
            run_id=run_id,
            program=program,
            paradigm=paradigm,
            params=params,
            size=size,
            threads=threads,
            seed=seed,
            plan=plan,
            trace_digest=trace_digest,
            events=len(events),
            final_time=final_time,
            eager_threshold=eager_threshold,
            detector_set=detector_set_fingerprint(DEFAULT_DETECTORS),
            analyzer_version=ANALYZER_VERSION,
            manifest=manifest,
        )
        self.store.record_run(run_id, run.to_payload())
        metrics = archive_metrics()
        if metrics is not None:
            metrics.runs_archived.inc()
        return run

    def record_run(
        self,
        spec: PropertySpec,
        run,
        size: int,
        threads: int,
        seed: int,
        params: Optional[dict] = None,
        plan: Optional[dict] = None,
        manifest: Optional[dict] = None,
        events: Optional[Sequence[Event]] = None,
    ) -> ArchivedRun:
        """Archive a finished run of ``spec`` (see :meth:`record`).

        The one place a run result becomes a manifest record: paradigm,
        JSON-safe ``params`` (default: the spec's defaults), final time
        and the transport's eager threshold all derive from ``spec`` and
        ``run``.  ``events`` replaces the run's own trace -- a cell
        whose trace went through a fault round trip archives what the
        reader salvaged.
        """
        transport = getattr(run, "transport", None)
        return self.record(
            program=spec.name,
            events=run.events if events is None else events,
            final_time=run.final_time,
            paradigm=spec.paradigm,
            params=params_to_jsonable(
                spec.default_params if params is None else params
            ),
            size=size,
            threads=threads,
            seed=seed,
            plan=plan,
            eager_threshold=(
                transport.eager_threshold if transport is not None else None
            ),
            manifest=manifest,
        )

    def archive_run(
        self,
        spec: PropertySpec,
        size: int = 8,
        num_threads: int = 4,
        seed: int = 0,
        params: Optional[dict] = None,
        severity_scale: Optional[float] = None,
        faults=None,
        time_budget: Optional[float] = None,
    ) -> ArchivedRun:
        """Execute a property function and archive its trace.

        ``severity_scale`` applies :meth:`PropertySpec.scaled_params`
        before any explicit ``params`` overrides -- the knob the CI
        gate demo uses to manufacture a severity regression.
        """
        base = (
            spec.scaled_params(severity_scale)
            if severity_scale is not None
            else dict(spec.default_params)
        )
        if params:
            base.update(params)
        run = spec.run(
            size=size,
            num_threads=num_threads,
            seed=seed,
            params=base,
            faults=faults,
            time_budget=time_budget,
        )
        plan_dict = None
        if faults is not None:
            plan = getattr(faults, "plan", faults)
            to_dict = getattr(plan, "to_dict", None)
            plan_dict = to_dict() if to_dict is not None else None
        return self.record_run(
            spec, run, size, num_threads, seed, params=base, plan=plan_dict
        )

    # ------------------------------------------------------------------
    # history
    # ------------------------------------------------------------------

    def history(self) -> List[ArchivedRun]:
        """Every manifest record in first-recorded order."""
        return [
            ArchivedRun.from_payload(run_id, payload)
            for run_id, payload in self.store.load_manifest().items()
        ]

    def resolve(self, ref: str) -> ArchivedRun:
        """Look up a run by id or unique id prefix."""
        manifest = self.store.load_manifest()
        if ref in manifest:
            return ArchivedRun.from_payload(ref, manifest[ref])
        matches = [rid for rid in manifest if rid.startswith(ref)]
        if len(matches) == 1:
            return ArchivedRun.from_payload(
                matches[0], manifest[matches[0]]
            )
        if not matches:
            raise ArchiveError(
                f"archive {self.root}: no run {ref!r} "
                f"({len(manifest)} runs; see 'ats history')"
            )
        raise ArchiveError(
            f"archive {self.root}: ambiguous run prefix {ref!r} "
            f"(matches {', '.join(sorted(matches))})"
        )

    # ------------------------------------------------------------------
    # analysis (cached)
    # ------------------------------------------------------------------

    def analyze(
        self,
        run: Union[str, ArchivedRun],
        detectors: Optional[Sequence] = None,
        config: Optional[AnalysisConfig] = None,
        stats: Optional[CacheStats] = None,
    ) -> AnalysisResult:
        """Cached analysis of one archived run (see :mod:`.cache`)."""
        if isinstance(run, str):
            run = self.resolve(run)
        return analyze_archived(
            self.store,
            run.to_payload(),
            detectors=detectors,
            config=config,
            stats=stats,
        )

    def analyze_many(
        self,
        runs: Optional[Sequence[Union[str, ArchivedRun]]] = None,
        detectors: Optional[Sequence] = None,
        stats: Optional[CacheStats] = None,
    ) -> Dict[str, AnalysisResult]:
        """Batch analysis: ``run_id -> AnalysisResult`` in run order.

        ``runs`` defaults to the whole history.
        """
        resolved = [
            self.resolve(r) if isinstance(r, str) else r
            for r in (self.history() if runs is None else runs)
        ]
        return {
            run.run_id: self.analyze(run, detectors=detectors, stats=stats)
            for run in resolved
        }

    # ------------------------------------------------------------------
    # diffing
    # ------------------------------------------------------------------

    def diff(
        self,
        before: Union[str, ArchivedRun],
        after: Union[str, ArchivedRun],
        threshold: float = 0.01,
        stats: Optional[CacheStats] = None,
    ) -> ComparisonReport:
        """Cross-run regression diff (cached analyses on both sides)."""
        return compare_analyses(
            self.analyze(before, stats=stats),
            self.analyze(after, stats=stats),
            threshold=threshold,
        )

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def export_trace(
        self, run: Union[str, ArchivedRun], path: Union[str, Path]
    ) -> Path:
        """Write a run's trace blob back out as a readable trace file.

        A ``.gz`` destination gets the deterministic gzip encoding;
        anything else gets plain JSONL.  Either way the file round-trips
        through :func:`repro.trace.read_trace`.
        """
        if isinstance(run, str):
            run = self.resolve(run)
        data = self.store.get_blob(run.trace_digest)
        path = Path(path)
        if path.suffix == ".gz":
            path.write_bytes(gzip_bytes(data))
        else:
            path.write_bytes(data)
        return path

    def close(self) -> None:
        self.store.close()

    def __enter__(self) -> "Archive":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def coerce_archive(
    archive: Union[None, str, Path, "Archive"],
) -> Optional["Archive"]:
    """Accept an archive or a directory path; ``None`` stays ``None``."""
    if archive is None or isinstance(archive, Archive):
        return archive
    return Archive(archive)


def history_to_json_str(runs: Sequence[ArchivedRun]) -> str:
    payload = {
        "format": "ats-archive-history",
        "version": 1,
        "runs": [
            dict(run.to_payload(), run_id=run.run_id) for run in runs
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def format_history(runs: Sequence[ArchivedRun]) -> str:
    """History as a fixed-width table (``ats history``)."""
    lines = [
        f"{'run':<13}{'program':<34}{'kind':>7}{'size':>6}{'thr':>5}"
        f"{'seed':>6}{'events':>8}{'vtime':>10}  trace"
    ]
    for run in runs:
        kind = "faulty" if run.plan else run.paradigm or "-"
        lines.append(
            f"{run.run_id:<13}{run.program:<34}{kind:>7}{run.size:>6}"
            f"{run.threads:>5}{run.seed:>6}{run.events:>8}"
            f"{run.final_time:>10.4f}  {run.trace_digest[:12]}"
        )
    lines.append(f"{len(runs)} archived run(s)")
    return "\n".join(lines) + "\n"
