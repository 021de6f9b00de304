"""Reference similarity engine: the stdlib clustering ``repro.stats.similarity`` replaced.

``pairwise_distances``, ``kmedoids``, ``single_link`` and ``silhouette``
below are the pure-Python implementations the numpy engine in
:mod:`repro.stats.similarity` must agree with: identical labels and
medoids, a silhouette within 1e-9, byte-identical findings.  They are
kept verbatim, as ``tests/simkernel/heap_queue.py`` keeps the old event
queue, so the equivalence tests compare against the code that shipped.

One module global is pinned rather than inherited: ``sum``.  Python
3.12's builtin ``sum`` compensates float rounding (Neumaier), while
3.11's adds one float at a time in order.  The engine reproduces the
3.11 order, so the oracle uses that order on every interpreter.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Sequence, Tuple

from repro.simkernel.rng import Lcg64, derive_seed


def sum(items, start=0):  # noqa: A001 -- shadows the builtin on purpose
    """The builtin ``sum`` as Python 3.11 computes it: left to right."""
    total = start
    for item in items:
        total = total + item
    return total


def euclidean(a: Sequence[float], b: Sequence[float]) -> float:
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def manhattan(a: Sequence[float], b: Sequence[float]) -> float:
    return sum(abs(x - y) for x, y in zip(a, b))


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


def pairwise_distances(
    rows: Sequence[Sequence[float]], metric: str = "euclidean"
) -> List[List[float]]:
    """Full symmetric distance matrix over the row vectors."""
    fn = metric_fn(metric)
    n = len(rows)
    dist = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = fn(rows[i], rows[j])
            dist[i][j] = d
            dist[j][i] = d
    return dist


# ----------------------------------------------------------------------
# k-medoids (PAM with farthest-first initialization)
# ----------------------------------------------------------------------

def _assign(dist: List[List[float]], medoids: Sequence[int]) -> List[int]:
    """Nearest-medoid label per point; ties go to the earlier medoid."""
    labels = []
    for i in range(len(dist)):
        best = 0
        best_d = dist[i][medoids[0]]
        for m_idx in range(1, len(medoids)):
            d = dist[i][medoids[m_idx]]
            if d < best_d:
                best_d = d
                best = m_idx
        labels.append(best)
    return labels


def _cost(dist: List[List[float]], medoids: Sequence[int]) -> float:
    return sum(
        min(dist[i][m] for m in medoids) for i in range(len(dist))
    )


def kmedoids(
    dist: List[List[float]],
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
    n = len(dist)
    if k < 1:
        raise ValueError("k must be >= 1")
    k = min(k, n)
    if n == 0:
        return (), ()
    # most central point, then farthest-first coverage
    medoids = [min(range(n), key=lambda i: (sum(dist[i]), i))]
    while len(medoids) < k:
        medoids.append(
            max(
                range(n),
                key=lambda i: (min(dist[i][m] for m in medoids), -i),
            )
        )
    rng = Lcg64(derive_seed(seed, n))
    cost = _cost(dist, medoids)
    for _ in range(max_iter):
        candidates = [i for i in range(n) if i not in medoids]
        # seed-rotated examination order; the *best* swap wins, so the
        # rotation only breaks exact cost ties
        offset = rng.randrange(len(candidates)) if candidates else 0
        best_swap = None
        best_cost = cost
        for slot in range(len(medoids)):
            for c_idx in range(len(candidates)):
                candidate = candidates[(c_idx + offset) % len(candidates)]
                trial = list(medoids)
                trial[slot] = candidate
                trial_cost = _cost(dist, trial)
                if trial_cost < best_cost - 1e-12:
                    best_cost = trial_cost
                    best_swap = (slot, candidate)
        if best_swap is None:
            break
        medoids[best_swap[0]] = best_swap[1]
        cost = best_cost
    order = sorted(range(len(medoids)), key=lambda s: medoids[s])
    medoids = [medoids[s] for s in order]
    return tuple(_assign(dist, medoids)), tuple(medoids)


# ----------------------------------------------------------------------
# hierarchical single-link
# ----------------------------------------------------------------------

def single_link(
    dist: List[List[float]], k: int
) -> Tuple[int, ...]:
    """Agglomerative single-linkage clustering cut at ``k`` clusters.

    Repeatedly merges the two clusters with the smallest minimum
    inter-point distance (ties: lowest member indices) until ``k``
    remain; labels are renumbered by each cluster's smallest member.
    """
    n = len(dist)
    if k < 1:
        raise ValueError("k must be >= 1")
    clusters: List[List[int]] = [[i] for i in range(n)]
    while len(clusters) > k:
        best = None
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                d = min(
                    dist[i][j]
                    for i in clusters[a]
                    for j in clusters[b]
                )
                key = (d, clusters[a][0], clusters[b][0])
                if best is None or key < best[0]:
                    best = (key, a, b)
        _, a, b = best
        clusters[a].extend(clusters[b])
        clusters[a].sort()
        del clusters[b]
    clusters.sort(key=lambda c: c[0])
    labels = [0] * n
    for label, members in enumerate(clusters):
        for i in members:
            labels[i] = label
    return tuple(labels)


# ----------------------------------------------------------------------
# cluster quality
# ----------------------------------------------------------------------

def silhouette(
    dist: List[List[float]], labels: Sequence[int]
) -> float:
    """Mean silhouette coefficient of a labeling, in [-1, 1].

    Points in singleton clusters score 0 (the standard convention); a
    degenerate labeling (one cluster, or all-zero distances) scores 0,
    which reads as "no separation" -- exactly what the detectors gate
    on.
    """
    n = len(labels)
    if n < 2 or len(set(labels)) < 2:
        return 0.0
    members: Dict[int, List[int]] = {}
    for i, label in enumerate(labels):
        members.setdefault(label, []).append(i)
    total = 0.0
    for i in range(n):
        own = members[labels[i]]
        if len(own) == 1:
            continue
        a = sum(dist[i][j] for j in own if j != i) / (len(own) - 1)
        b = min(
            sum(dist[i][j] for j in other) / len(other)
            for label, other in sorted(members.items())
            if label != labels[i]
        )
        denom = max(a, b)
        if denom > 0.0:
            total += (b - a) / denom
    return total / n
