"""The statistical detector family: similarity analysis as a Detector.

Rule-based detectors name the exact ASL property a wait belongs to; a
statistical detector cannot -- it only knows that some ranks behave
unlike the others.  The family therefore emits its own property ids
(``similarity_rank_outlier``, ``similarity_phase_anomaly``) and a
**class taxonomy** maps them onto the analyzer catalog: every ASL
property id belongs to one behavior class (imbalance, straggler,
contention, ordering, overhead, io), and each statistical property
declares which classes an emission of it plausibly explains.  The
robustness harness and the synth scorer use that mapping to grade
rule-based and statistical recall side by side on the same
ground-truth manifests.

Both detectors satisfy the :class:`~repro.analysis.detectors.Detector`
protocol, so they run through ``analyze()``, the archive's incremental
cache (their fingerprints cover the delegated feature/similarity
modules -- see ``fingerprint_modules``), the robustness harness and
synth campaign scoring like any rule-based detector.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Tuple

from ..analysis.detectors.base import AnalysisConfig
from ..analysis.index import TraceIndex
from ..analysis.model import Finding
from ..core.registry import GLOBALLY_ALLOWED
from ..obs.instruments import stats_metrics
from ..obs.spans import span
from ..trace.events import Event
from .features import FeatureMatrix, behavior_matrix
from .similarity import cluster_rows

#: analyzer property id -> behavior class
PROPERTY_CLASSES: Dict[str, str] = {
    "late_sender": "straggler",
    "late_receiver": "straggler",
    "late_broadcast": "straggler",
    "late_scatter": "straggler",
    "late_scatterv": "straggler",
    "early_reduce": "straggler",
    "early_gather": "straggler",
    "early_gatherv": "straggler",
    "wait_at_barrier": "imbalance",
    "wait_at_nxn": "imbalance",
    "imbalance_at_omp_barrier": "imbalance",
    "imbalance_in_omp_pregion": "imbalance",
    "imbalance_in_omp_loop": "imbalance",
    "imbalance_in_omp_sections": "imbalance",
    "imbalance_at_omp_single": "imbalance",
    "imbalance_at_omp_reduce": "imbalance",
    "omp_critical_contention": "contention",
    "omp_lock_contention": "contention",
    "messages_in_wrong_order": "ordering",
    "mpi_init_overhead": "overhead",
    "io_bound": "io",
}

#: statistical property id -> behavior classes an emission reliably
#: explains.  Deliberately conservative: the "io" class maps to
#: nothing because IO-boundedness is uniform across ranks -- there is
#: no outlier structure for a similarity method to find -- and
#: contention (serialized access, every thread delayed) shows up as a
#: per-phase anomaly rather than a whole-vector outlier.
SIMILARITY_COVERS: Dict[str, FrozenSet[str]] = {
    "similarity_rank_outlier": frozenset(
        {"imbalance", "straggler", "ordering"}
    ),
    "similarity_phase_anomaly": frozenset(
        {"imbalance", "straggler", "contention"}
    ),
}

#: every property id the statistical family can emit
SIMILARITY_PROPERTY_IDS: Tuple[str, ...] = tuple(
    sorted(SIMILARITY_COVERS)
)


def property_class(pid: str) -> str:
    """Behavior class of an analyzer property id ('' when unknown)."""
    return PROPERTY_CLASSES.get(pid, "")


def covers(stat_pid: str, pid: str) -> bool:
    """Does a statistical emission plausibly explain analyzer ``pid``?"""
    return property_class(pid) in SIMILARITY_COVERS.get(
        stat_pid, frozenset()
    )


def statistical_expectations(
    expected: Iterable[str],
) -> Tuple[str, ...]:
    """The statistical property ids a ground truth obliges to fire.

    Given a manifest's expected analyzer property ids, returns the
    sorted statistical ids whose covered classes intersect them --
    what the robustness harness adds to a cell's ``expected`` when the
    similarity family is enabled.
    """
    classes = {property_class(pid) for pid in expected} - {""}
    return tuple(
        pid
        for pid in SIMILARITY_PROPERTY_IDS
        if SIMILARITY_COVERS[pid] & classes
    )


def grade_cell(
    expected: Iterable[str],
    allowed: Iterable[str],
    detected: Sequence[str],
    families: Iterable[str],
) -> Tuple[Tuple[str, ...], Tuple[str, ...], Tuple[str, ...], Tuple[str, ...]]:
    """Grade one sweep cell's detections against its ground truth.

    The one grading rule of every sweep.  ``expected`` and ``allowed``
    name analyzer properties; :data:`GLOBALLY_ALLOWED` (framework
    overhead) joins ``allowed`` here, so no caller adds it.  With the
    similarity family among ``families``, the statistical ids are
    graded through the class taxonomy: those the ground truth obliges
    (:func:`statistical_expectations`) become expected; on a
    pathological cell (non-empty ``expected``) the rest are tolerated
    -- a statistical anomaly flag on a run that is pathological by
    construction is correct at the family's granularity -- while a
    clean cell tolerates none, so false alarms stay visible.

    Returns ``(expected, allowed, missing, spurious)``: the graded
    expected and tolerated ids, sorted; the expected ids not detected,
    sorted; and the detected ids neither expected nor tolerated, in
    detection order.
    """
    expected = set(expected)
    allowed = set(allowed).union(GLOBALLY_ALLOWED)
    if "similarity" in families:
        obliged = set(statistical_expectations(expected))
        if expected:
            allowed |= set(SIMILARITY_PROPERTY_IDS) - obliged
        expected |= obliged
    ordered = tuple(sorted(expected))
    return (
        ordered,
        tuple(sorted(allowed)),
        tuple(p for p in ordered if p not in detected),
        tuple(
            p for p in detected if p not in expected and p not in allowed
        ),
    )


def derive_features(
    events: Sequence[Event], total_time: Optional[float] = None
) -> FeatureMatrix:
    """``behavior_matrix`` of ``events``, timed as one feature step.

    The step is bracketed by a ``stats:features`` span and counted
    into the stats feature seconds and rows.  Both detectors and the
    dataset export derive features here.  ``behavior_matrix`` is
    called through this module's global, which perfbench's layer
    probes rebind.
    """
    index = (
        events
        if isinstance(events, TraceIndex)
        else TraceIndex(list(events))
    )
    metrics = stats_metrics()
    with span("stats:features", cat="stats", rows=len(index.locations)):
        t0 = perf_counter() if metrics is not None else 0.0
        matrix = behavior_matrix(index, total_time=total_time)
        if metrics is not None:
            metrics.feature_seconds.inc(perf_counter() - t0)
            metrics.feature_rows.inc(len(matrix))
    return matrix


class SimilarityDetector:
    """Flags ranks whose behavior vector separates from the baseline.

    Clusters the per-rank vectors (``k`` clusters, ``metric``
    distance, seeded deterministic k-medoids by default) and gates on
    the silhouette coefficient: below ``threshold`` the trace has no
    statistically separable structure and nothing is emitted -- the
    guard that keeps negative programs clean.  With structure present,
    the cluster with the *lowest* mean overhead (comm + wait seconds)
    is the healthy baseline, and every row outside it yields one
    ``similarity_rank_outlier`` finding whose wait time is the row's
    overhead excess over that baseline -- a statistical deviation
    expressed in the analyzer's severity currency.
    """

    produces = ("similarity_rank_outlier",)
    #: delegate modules digested into this detector's cache fingerprint
    fingerprint_modules = (
        "repro.stats.features",
        "repro.stats.similarity",
    )

    def __init__(
        self,
        k: int = 2,
        metric: str = "euclidean",
        method: str = "kmedoids",
        threshold: float = 0.35,
        min_rows: int = 4,
        seed: int = 0,
    ) -> None:
        self.k = k
        self.metric = metric
        self.method = method
        self.threshold = threshold
        self.min_rows = min_rows
        self.seed = seed

    def detect(
        self, events: Sequence[Event], config: AnalysisConfig
    ) -> Iterable[Finding]:
        matrix = derive_features(events)
        if len(matrix) < self.min_rows:
            return
        metrics = stats_metrics()
        with span("stats:cluster", cat="stats", rows=len(matrix)):
            t0 = perf_counter() if metrics is not None else 0.0
            assign = cluster_rows(
                matrix.rows,
                k=self.k,
                metric=self.metric,
                method=self.method,
                seed=self.seed,
            )
            if metrics is not None:
                metrics.cluster_seconds.inc(perf_counter() - t0)
        if assign.silhouette < self.threshold:
            return
        by_label: Dict[int, list] = {}
        for i, label in enumerate(assign.labels):
            by_label.setdefault(label, []).append(i)
        means = {
            label: sum(matrix.overhead(i) for i in rows) / len(rows)
            for label, rows in sorted(by_label.items())
        }
        baseline = min(sorted(means), key=lambda label: means[label])
        floor = means[baseline]
        for i in range(len(matrix)):
            if assign.labels[i] == baseline:
                continue
            excess = matrix.overhead(i) - floor
            if excess <= config.noise_floor:
                continue
            yield Finding(
                "similarity_rank_outlier",
                matrix.dominant_path(i),
                matrix.locs[i],
                excess,
            )


class PhaseAnomalyDetector:
    """Flags call paths where a rank's overhead dwarfs the quiet floor.

    Per significant call path (the feature layer's ``path:*``
    columns), compares each row's overhead seconds against the column
    minimum -- the quiet floor.  Any higher percentile (median, lower
    quartile) gets dragged up when most ranks are pathological, as in
    collective stragglers where n-1 ranks wait on one.  A row at least
    ``ratio`` times the floor (and above the noise floor) yields one
    ``similarity_phase_anomaly`` finding carrying the excess over the
    floor.  Catches localized phase
    problems -- ranks stuck in one phase -- that whole-vector
    clustering can average away.
    """

    produces = ("similarity_phase_anomaly",)
    fingerprint_modules = (
        "repro.stats.features",
        "repro.stats.similarity",
    )

    def __init__(self, ratio: float = 3.0, min_rows: int = 4) -> None:
        self.ratio = ratio
        self.min_rows = min_rows

    def detect(
        self, events: Sequence[Event], config: AnalysisConfig
    ) -> Iterable[Finding]:
        matrix = derive_features(events)
        n = len(matrix)
        if n < self.min_rows:
            return
        for j, path in enumerate(matrix.paths):
            floor = min(
                matrix.path_overhead[i][j] for i in range(n)
            )
            for i in range(n):
                value = matrix.path_overhead[i][j]
                excess = value - floor
                if excess <= config.noise_floor:
                    continue
                if floor > 0.0 and value < self.ratio * floor:
                    continue
                yield Finding(
                    "similarity_phase_anomaly",
                    path,
                    matrix.locs[i],
                    excess,
                )


#: the statistical battery, the peer of
#: :data:`repro.analysis.detectors.DEFAULT_DETECTORS`
STATISTICAL_DETECTORS: Tuple[object, ...] = (
    SimilarityDetector(),
    PhaseAnomalyDetector(),
)
