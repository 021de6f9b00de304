"""Pairwise distance, clustering and cluster quality in numpy bulk.

Every algorithm is a pure function of the distance matrix with fixed,
index-based tie-breaking, so the same feature matrix clusters
identically in any process, worker pool or fork topology.  The
``seed`` on k-medoids varies only the *order* in which the PAM swap
phase examines candidates (splitmix-derived, never host entropy),
which can matter when two swaps improve cost equally; the default
seed 0 is what every shipped detector uses.

The engine works on a feature matrix's **distinct rows**.  SPMD ranks
mostly behave alike (Liu et al.'s premise): 1,024 barrier-imbalanced
ranks have 6 distinct behaviour vectors.  :func:`cluster_rows` maps
each row to the first identical one, computes distances among the
distinct rows only, and reads any point's distances through that map.
Identical rows have identical distance columns, so they also share
every PAM trial cost and silhouette term.

The arithmetic reproduces the pure-Python engine this module replaced
(kept as the oracle in ``tests/stats/reference_similarity.py``): its
labels, medoids and therefore findings are identical, and its
silhouette agrees within 1e-9.  To keep that promise the code uses
elementwise operations and :func:`_sums`, which adds along one axis in
index order as Python 3.11's ``sum`` does; never ``@``, ``dot`` or
``np.sum``, whose summation order numpy chooses.  Ties follow the old
index rules through ``argmin``/``argmax``, which return the first
extreme.  Squares are ``d * d`` where the old code called libm
``pow``; the two differ in the last bit for about 0.1% of doubles, so
distances agree to rounding rather than bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..simkernel.rng import Lcg64, derive_seed

#: elements per temporary array in the distance kernel (8 MB of floats)
_BLOCK = 1 << 20


def _sums(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sums along ``axis``, adding one element at a time in index order."""
    if values.shape[axis] == 0:
        return np.zeros(np.delete(values.shape, axis))
    return np.add.accumulate(values, axis=axis).take(-1, axis=axis)


def _euclidean_rows(diff: np.ndarray) -> np.ndarray:
    return np.sqrt(_sums(diff * diff))


def _manhattan_rows(diff: np.ndarray) -> np.ndarray:
    return _sums(np.abs(diff))


#: metric name -> distances of the rows of a difference array
_KERNELS: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "euclidean": _euclidean_rows,
    "manhattan": _manhattan_rows,
}


def euclidean(a: Sequence[float], b: Sequence[float]) -> float:
    return float(_euclidean_rows(np.subtract(a, b, dtype=float)))


def manhattan(a: Sequence[float], b: Sequence[float]) -> float:
    return float(_manhattan_rows(np.subtract(a, b, dtype=float)))


METRICS: Dict[str, Callable] = {
    "euclidean": euclidean,
    "manhattan": manhattan,
}


def metric_fn(name: str) -> Callable:
    try:
        return METRICS[name]
    except KeyError:
        raise ValueError(
            f"unknown distance metric {name!r} "
            f"(have: {', '.join(sorted(METRICS))})"
        ) from None


class _Points:
    """n points as distances among distinct rows plus each point's row.

    ``dist`` is the symmetric zero-diagonal matrix among the distinct
    rows, ``row[i]`` the distinct row of point ``i`` and ``first[r]``
    the first point whose row is ``r``; rows are numbered in order of
    first appearance, so ``first`` ascends.
    """

    __slots__ = ("dist", "row", "first")

    def __init__(
        self, dist: np.ndarray, row: np.ndarray, first: np.ndarray
    ) -> None:
        self.dist = dist
        self.row = row
        self.first = first

    @classmethod
    def from_matrix(cls, dist) -> "_Points":
        """Every point its own row: a full distance matrix as given."""
        matrix = np.asarray(dist, dtype=float)
        points = np.arange(len(matrix))
        return cls(matrix.reshape(len(matrix), len(matrix)), points, points)

    @classmethod
    def from_rows(
        cls, rows: Sequence[Sequence[float]], metric: str
    ) -> "_Points":
        """Distinct rows of a feature matrix and the distances among them."""
        metric_fn(metric)
        seen: Dict[tuple, int] = {}
        row: List[int] = []
        first: List[int] = []
        for i, values in enumerate(rows):
            key = tuple(values)
            r = seen.setdefault(key, len(seen))
            if r == len(first):
                first.append(i)
            row.append(r)
        table = (
            np.array(list(seen), dtype=float).reshape(len(seen), -1)
            if seen
            else np.zeros((0, 0))
        )
        return cls(
            _distances(table, _KERNELS[metric]),
            np.array(row, dtype=np.intp),
            np.array(first, dtype=np.intp),
        )

    def __len__(self) -> int:
        return len(self.row)

    def full(self) -> np.ndarray:
        """Distinct rows x points: each row's distance to every point."""
        return self.dist[:, self.row]


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@lru_cache(maxsize=16)
def _pairs(u: int) -> Tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strict upper triangle of u x u.

    Cached because a campaign clusters hundreds of small matrices of a
    few sizes; 16 entries bound what it holds (8 MB at u = 1024).
    """
    upper, lower = np.triu_indices(u, 1)
    return _frozen(upper), _frozen(lower)


@lru_cache(maxsize=16)
def _leave_one_out(k: int) -> np.ndarray:
    """k x (k - 1) slot indices: row ``s`` names every slot but ``s``."""
    return _frozen(np.array(
        [[t for t in range(k) if t != s] for s in range(k)], dtype=np.intp
    ).reshape(k, k - 1))


def _distances(table: np.ndarray, kernel: Callable) -> np.ndarray:
    """Symmetric distance matrix among the rows of ``table``."""
    u, m = table.shape
    dist = np.zeros((u, u))
    upper, lower = _pairs(u)
    step = max(1, _BLOCK // max(m, 1))
    for lo in range(0, len(upper), step):
        i, j = upper[lo:lo + step], lower[lo:lo + step]
        d = kernel(np.take(table, i, axis=0) - np.take(table, j, axis=0))
        dist[i, j] = d
        dist[j, i] = d
    return dist


def pairwise_distances(
    rows: Sequence[Sequence[float]], metric: str = "euclidean"
) -> np.ndarray:
    """Full symmetric distance matrix over the row vectors (n x n)."""
    points = _Points.from_rows(rows, metric)
    return points.dist[np.ix_(points.row, points.row)]


# ----------------------------------------------------------------------
# k-medoids (PAM with farthest-first initialization)
# ----------------------------------------------------------------------

def kmedoids(
    dist,
    k: int,
    seed: int = 0,
    max_iter: int = 64,
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """PAM k-medoids over a distance matrix.

    Returns ``(labels, medoids)`` where ``labels[i]`` is the cluster
    index of point ``i`` and ``medoids`` the chosen exemplar points.
    Initialization is deterministic (most-central point first, then
    farthest-first); the swap phase greedily applies the best
    cost-reducing (medoid, candidate) exchange until none remains.
    """
    return _kmedoids(_Points.from_matrix(dist), k, seed, max_iter)


def _kmedoids(
    points: _Points, k: int, seed: int = 0, max_iter: int = 64
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    n = len(points)
    if k < 1:
        raise ValueError("k must be >= 1")
    k = min(k, n)
    if n == 0:
        return (), ()
    full = points.full()
    # most central point, then farthest-first coverage; argmin/argmax
    # pick the lowest row, whose first point is the lowest index
    medoids = [int(points.first[np.argmin(_sums(full))])]
    near = full[:, medoids[0]]
    while len(medoids) < k:
        medoids.append(int(points.first[np.argmax(near)]))
        near = np.minimum(near, full[:, medoids[-1]])
    rng = Lcg64(derive_seed(seed, n))
    row = points.row
    cost = float(_sums(near[row]))
    # points sharing a row cost the same as candidates: the first one
    # examined is the only one that can win, so the rest are skipped
    shared = len(points.first) < n
    row_of = row.tolist()
    loo = _leave_one_out(k)
    for _ in range(max_iter):
        taken = set(medoids)
        candidates = [i for i in range(n) if i not in taken]
        if not candidates:
            break
        # seed-rotated examination order; the *best* swap wins, so the
        # rotation only breaks exact cost ties
        offset = rng.randrange(len(candidates))
        order = candidates[offset:] + candidates[:offset]
        if shared:
            seen: set = set()
            order = [
                i for i in order
                if not (row_of[i] in seen or seen.add(row_of[i]))
            ]
        # trial cost of every (slot, candidate), slot-major: each
        # point's distance to the nearest of the other medoids and the
        # candidate, summed over the points in index order
        others = full[:, medoids][:, loo].min(axis=2, initial=np.inf)
        trial = np.minimum(others.T[:, :, None], full[None, :, order])
        if shared:
            trial = trial[:, row, :]
        costs = _sums(trial, axis=1).ravel()
        best_swap = None
        best_cost = cost
        for j in np.flatnonzero(costs < cost - 1e-12).tolist():
            trial_cost = float(costs[j])
            if trial_cost < best_cost - 1e-12:
                best_cost = trial_cost
                best_swap = divmod(j, len(order))
        if best_swap is None:
            break
        medoids[best_swap[0]] = order[best_swap[1]]
        cost = best_cost
    medoids.sort()
    labels = np.argmin(full[:, medoids], axis=1)[row]
    return tuple(labels.tolist()), tuple(medoids)


# ----------------------------------------------------------------------
# hierarchical single-link
# ----------------------------------------------------------------------

def single_link(dist, k: int) -> Tuple[int, ...]:
    """Agglomerative single-linkage clustering cut at ``k`` clusters.

    Repeatedly merges the two clusters with the smallest minimum
    inter-point distance (ties: lowest member indices) until ``k``
    remain; labels are renumbered by each cluster's smallest member.
    """
    return _single_link(_Points.from_matrix(dist), k)


def _single_link(points: _Points, k: int) -> Tuple[int, ...]:
    n = len(points)
    if k < 1:
        raise ValueError("k must be >= 1")
    # cluster-distance matrix, one row per cluster at the index of its
    # first member: row order is cluster order, so the first minimum in
    # row-major order is the lowest (distance, first a, first b) pair
    link = points.dist[np.ix_(points.row, points.row)]
    np.fill_diagonal(link, np.inf)
    members: List[List[int]] = [[i] for i in range(n)]
    for _ in range(n - k):
        a, b = divmod(int(np.argmin(link)), n)
        merged = np.minimum(link[a], link[b])
        merged[a] = np.inf
        link[a] = merged
        link[:, a] = merged
        link[b] = np.inf
        link[:, b] = np.inf
        members[a].extend(members[b])
        members[b] = []
    labels = [0] * n
    for label, group in enumerate(g for g in members if g):
        for i in group:
            labels[i] = label
    return tuple(labels)


# ----------------------------------------------------------------------
# cluster quality
# ----------------------------------------------------------------------

def silhouette(dist, labels: Sequence[int]) -> float:
    """Mean silhouette coefficient of a labeling, in [-1, 1].

    Points in singleton clusters score 0 (the standard convention); a
    degenerate labeling (one cluster, or all-zero distances) scores 0,
    which reads as "no separation" -- exactly what the detectors gate
    on.
    """
    return _silhouette(_Points.from_matrix(dist), labels)


def _silhouette(points: _Points, labels: Sequence[int]) -> float:
    n = len(labels)
    values = sorted(set(labels))
    if n < 2 or len(values) < 2:
        return 0.0
    cluster = np.searchsorted(values, labels)
    sizes = np.bincount(cluster)
    full = points.full()
    # each row's summed distance to every cluster's members, in index
    # order; a point's own zero self-distance adds nothing to its sum
    sums = np.empty((len(full), len(values)))
    for c in range(len(values)):
        sums[:, c] = _sums(full[:, cluster == c])
    own_size = sizes[cluster]
    per_point = sums[points.row]
    everyone = np.arange(n)
    a = per_point[everyone, cluster] / np.maximum(own_size - 1, 1)
    means = per_point / sizes
    means[everyone, cluster] = np.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    scored = (own_size > 1) & (denom > 0.0)
    terms = np.where(scored, (b - a) / np.where(scored, denom, 1.0), 0.0)
    return float(_sums(terms)) / n


@dataclass(frozen=True)
class ClusterAssignment:
    """One clustering of a feature matrix's rows."""

    method: str
    metric: str
    k: int
    labels: Tuple[int, ...]
    medoids: Tuple[int, ...]
    silhouette: float

    def members(self, label: int) -> Tuple[int, ...]:
        return tuple(
            i for i, lab in enumerate(self.labels) if lab == label
        )

    def sizes(self) -> Tuple[int, ...]:
        counts: Dict[int, int] = {}
        for label in self.labels:
            counts[label] = counts.get(label, 0) + 1
        return tuple(counts[label] for label in sorted(counts))


def cluster_rows(
    rows: Sequence[Sequence[float]],
    k: int = 2,
    metric: str = "euclidean",
    method: str = "kmedoids",
    seed: int = 0,
) -> ClusterAssignment:
    """Cluster normalized feature rows; the detectors' entry point."""
    points = _Points.from_rows(rows, metric)
    if method == "kmedoids":
        labels, medoids = _kmedoids(points, k, seed=seed)
    elif method == "single_link":
        labels = _single_link(points, k)
        medoids = ()
    else:
        raise ValueError(
            f"unknown clustering method {method!r} "
            "(have: kmedoids, single_link)"
        )
    return ClusterAssignment(
        method=method,
        metric=metric,
        k=k,
        labels=labels,
        medoids=medoids,
        silhouette=_silhouette(points, labels),
    )
