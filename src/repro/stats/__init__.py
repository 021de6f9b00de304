"""Statistical analysis layer: similarity detection + dataset export.

The rule-based detectors in :mod:`repro.analysis` pattern-match known
ASL properties; this package adds the complementary family from the
SPMD-debugging literature (Liu et al.): derive a behavior vector per
rank, cluster the vectors, and flag ranks and phases that separate
from the baseline.  Detector **families** are first-class here --
``"rule"`` (the default battery) and ``"similarity"`` (this package's
battery) -- so the robustness harness, the synth scorer and the CLI
can run and grade them side by side against the same ground truth.

See ``docs/STATS.md`` for the feature schema, the algorithms and the
dataset export format.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from .dataset import (
    DATASET_FORMAT,
    ROW_REQUIRED_KEYS,
    DatasetRow,
    dataset_rows,
    feature_cell_key,
    features_for_run,
    rows_to_csv,
    rows_to_jsonl,
    validate_row,
)
from .detector import (
    PROPERTY_CLASSES,
    SIMILARITY_COVERS,
    SIMILARITY_PROPERTY_IDS,
    STATISTICAL_DETECTORS,
    PhaseAnomalyDetector,
    SimilarityDetector,
    covers,
    grade_cell,
    property_class,
    statistical_expectations,
)
from .features import (
    BASE_FEATURES,
    FEATURE_VERSION,
    FeatureMatrix,
    behavior_matrix,
)
from .similarity import (
    METRICS,
    ClusterAssignment,
    cluster_rows,
    euclidean,
    kmedoids,
    manhattan,
    pairwise_distances,
    silhouette,
    single_link,
)

#: the known detector family names, in battery order
FAMILY_NAMES: Tuple[str, ...] = ("rule", "similarity")


def detector_families() -> Dict[str, Tuple[object, ...]]:
    """Family name -> detector battery (imports rule battery lazily)."""
    from ..analysis.detectors import DEFAULT_DETECTORS

    return {
        "rule": tuple(DEFAULT_DETECTORS),
        "similarity": STATISTICAL_DETECTORS,
    }


def battery_for(families: Sequence[str]) -> Tuple[object, ...]:
    """Concatenated battery of the named families, in family order.

    Raises ValueError on an unknown family name; the concatenation
    order is fixed (rule first) regardless of the order given, so the
    detector-set fingerprint of a family selection is stable.
    """
    known = detector_families()
    unknown = sorted(set(families) - set(known))
    if unknown:
        raise ValueError(
            f"unknown detector families: {', '.join(unknown)} "
            f"(have: {', '.join(FAMILY_NAMES)})"
        )
    wanted = set(families)
    battery: list = []
    for name in FAMILY_NAMES:
        if name in wanted:
            battery.extend(known[name])
    return tuple(battery)


def parse_families(text: str) -> Tuple[str, ...]:
    """Parse a ``--families rule,similarity`` CLI value."""
    names = tuple(
        name.strip() for name in text.split(",") if name.strip()
    )
    if not names:
        raise ValueError("need at least one detector family")
    battery_for(names)  # validates
    return names


__all__ = [
    "BASE_FEATURES",
    "DATASET_FORMAT",
    "DatasetRow",
    "FAMILY_NAMES",
    "FEATURE_VERSION",
    "FeatureMatrix",
    "METRICS",
    "ClusterAssignment",
    "PROPERTY_CLASSES",
    "PhaseAnomalyDetector",
    "ROW_REQUIRED_KEYS",
    "SIMILARITY_COVERS",
    "SIMILARITY_PROPERTY_IDS",
    "STATISTICAL_DETECTORS",
    "SimilarityDetector",
    "battery_for",
    "behavior_matrix",
    "cluster_rows",
    "covers",
    "dataset_rows",
    "detector_families",
    "euclidean",
    "feature_cell_key",
    "features_for_run",
    "grade_cell",
    "kmedoids",
    "manhattan",
    "pairwise_distances",
    "parse_families",
    "property_class",
    "rows_to_csv",
    "rows_to_jsonl",
    "silhouette",
    "single_link",
    "statistical_expectations",
    "validate_row",
]
