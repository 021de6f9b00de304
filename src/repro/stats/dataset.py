"""Ground-truth dataset export: (features, labels) tables.

Joins the feature layer with :class:`~repro.archive.api.ArchivedRun`
ground truth: every archived run carrying a synthesized manifest
becomes one row per rank -- the rank's normalized behavior vector as
features, the manifest's expected property ids as labels (per-rank
labels follow the manifest's pathological-rank locations; cell-level
labels and severity bands ride along).  This is the AutoPerf
dataset_creator / data_processor shape: JSON-lines for schema-rich
consumers, CSV with one column per feature for spreadsheet/sklearn
pipelines, so external ML tooling can train on ATS-generated labels.

Feature extraction is cached in the archive as a cell of the trace's
cell file, under ``features|<trace digest>|<FEATURE_VERSION>`` -- a
warm export never re-reads a trace blob, mirroring the incremental
analysis cache.  Output is deterministic: runs are joined in manifest
order, rows per run in rank order, and all serialization is key-sorted.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..archive.cache import CacheStats, archived_events, count_lookup
from ..obs.instruments import stats_metrics
from ..obs.spans import span
from .detector import derive_features
from .features import FEATURE_VERSION, FeatureMatrix

#: artifact format tag every exported JSONL row carries
DATASET_FORMAT = "ats-dataset-row"
DATASET_VERSION = 1

#: keys every JSONL row must carry (the CI schema check's contract)
ROW_REQUIRED_KEYS = (
    "format",
    "version",
    "run_id",
    "program",
    "key",
    "rank",
    "features",
    "busy_seconds",
    "labels",
    "cell_labels",
    "bands",
    "seed",
)


def feature_cell_key(trace_digest: str) -> str:
    """Archive cache key of one trace's feature matrix."""
    return f"features|{trace_digest}|{FEATURE_VERSION}"


def features_for_run(
    archive, run, stats: Optional[CacheStats] = None
) -> FeatureMatrix:
    """The behavior matrix of one archived run, cached in its store.

    On a miss the trace blob is loaded, vectors derived and the matrix
    stored as a cell of the trace; a warm export assembles from cells
    alone.  ``FEATURE_VERSION`` is part of the key, so a feature-schema
    change invalidates exactly the feature cells.
    """
    store = archive.store
    key = feature_cell_key(run.trace_digest)
    payload = store.get_named(run.trace_digest).get(key)
    count_lookup(stats, "features", payload is not None)
    if payload is not None:
        return FeatureMatrix.from_dict(payload)
    matrix = derive_features(
        archived_events(store, run.trace_digest), total_time=run.final_time
    )
    store.put_named(run.trace_digest, {key: matrix.to_dict()})
    return matrix


@dataclass(frozen=True)
class DatasetRow:
    """One (features, labels) sample: one rank of one archived run."""

    run_id: str
    program: str
    key: str
    rank: int
    features: Tuple[Tuple[str, float], ...]
    busy_seconds: float
    #: ground-truth property ids localized to this rank
    labels: Tuple[str, ...]
    #: the run's full expected property set (cell-level ground truth)
    cell_labels: Tuple[str, ...]
    bands: Tuple[Tuple[str, str], ...]
    seed: int
    noise_magnitude: float

    def to_dict(self) -> dict:
        return {
            "format": DATASET_FORMAT,
            "version": DATASET_VERSION,
            "run_id": self.run_id,
            "program": self.program,
            "key": self.key,
            "rank": self.rank,
            "features": dict(self.features),
            "busy_seconds": self.busy_seconds,
            "labels": list(self.labels),
            "cell_labels": list(self.cell_labels),
            "bands": dict(self.bands),
            "seed": self.seed,
            "noise_magnitude": self.noise_magnitude,
        }


def dataset_rows(
    archive,
    runs: Optional[Sequence] = None,
    stats: Optional[CacheStats] = None,
) -> List[DatasetRow]:
    """Join archived ground-truth runs into dataset rows.

    ``runs`` defaults to every manifest-carrying run in the archive's
    history (synthesized campaign cells); runs without ground truth
    are skipped -- there is nothing to label them with.
    """
    if runs is None:
        runs = archive.history()
    labeled = [run for run in runs if run.manifest is not None]
    rows: List[DatasetRow] = []
    metrics = stats_metrics()
    with span("stats:export", cat="stats", runs=len(labeled)):
        for run in labeled:
            manifest = run.manifest
            matrix = features_for_run(archive, run, stats=stats)
            by_rank: Dict[int, set] = {}
            for loc in manifest.get("locations", ()):
                for rank in loc["ranks"]:
                    by_rank.setdefault(rank, set()).add(
                        loc["property"]
                    )
            cell_labels = tuple(manifest.get("expected", ()))
            bands = tuple(
                sorted(manifest.get("severity_bands", {}).items())
            )
            for i in range(len(matrix)):
                rank = matrix.locs[i].rank
                rows.append(
                    DatasetRow(
                        run_id=run.run_id,
                        program=run.program,
                        key=matrix.keys[i],
                        rank=rank,
                        features=tuple(
                            zip(matrix.names, matrix.rows[i])
                        ),
                        busy_seconds=matrix.busy(i),
                        labels=tuple(
                            sorted(by_rank.get(rank, ()))
                        ),
                        cell_labels=cell_labels,
                        bands=bands,
                        seed=run.seed,
                        noise_magnitude=manifest.get(
                            "noise_magnitude", 0.0
                        ),
                    )
                )
        if metrics is not None:
            metrics.export_runs.inc(len(labeled))
            metrics.export_rows.inc(len(rows))
    return rows


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def rows_to_jsonl(rows: Sequence[DatasetRow]) -> str:
    """One key-sorted JSON object per line (deterministic bytes)."""
    return "".join(
        json.dumps(row.to_dict(), sort_keys=True) + "\n"
        for row in rows
    )


def rows_to_csv(rows: Sequence[DatasetRow]) -> str:
    """Flat table: one column per feature (union across rows).

    Multi-label columns (``labels``, ``cell_labels``) are joined with
    ``|``; features a row lacks (per-path columns of other traces)
    default to 0.0 so every row is dense.
    """
    names: List[str] = sorted(
        {name for row in rows for name, _ in row.features}
    )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "run_id",
            "program",
            "key",
            "rank",
            "busy_seconds",
            "labels",
            "cell_labels",
            "seed",
            "noise_magnitude",
        ]
        + names
    )
    for row in rows:
        features = dict(row.features)
        writer.writerow(
            [
                row.run_id,
                row.program,
                row.key,
                row.rank,
                repr(row.busy_seconds),
                "|".join(row.labels),
                "|".join(row.cell_labels),
                row.seed,
                repr(row.noise_magnitude),
            ]
            + [repr(features.get(name, 0.0)) for name in names]
        )
    return buf.getvalue()


def validate_row(payload: dict) -> None:
    """Raise ValueError when a JSONL row violates the schema."""
    for key in ROW_REQUIRED_KEYS:
        if key not in payload:
            raise ValueError(f"dataset row missing key {key!r}")
    if payload["format"] != DATASET_FORMAT:
        raise ValueError(
            f"not a dataset row (format={payload['format']!r})"
        )
    if not isinstance(payload["features"], dict):
        raise ValueError("dataset row features must be an object")
    for name, value in payload["features"].items():
        if not isinstance(value, (int, float)):
            raise ValueError(
                f"feature {name!r} is not numeric: {value!r}"
            )
