"""The numpy similarity engine against the stdlib code it replaced.

``reference_similarity`` holds the pure-Python clustering verbatim.
The engine must make the same decisions: identical labels and
medoids, a silhouette within 1e-9, and byte-identical findings from
both statistical detectors.  Distances may differ in the last bit
(``d * d`` against libm ``pow``), so they are not compared.
"""

import random

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_events
from repro.core import list_properties, run_all_mpi_properties
from repro.stats import STATISTICAL_DETECTORS, cluster_rows
from repro.stats import detector as stats_detector
from repro.stats import similarity

from . import reference_similarity as ref


def _oracle(rows, k, metric="euclidean", method="kmedoids", seed=0):
    dist = ref.pairwise_distances(rows, metric)
    if method == "kmedoids":
        labels, medoids = ref.kmedoids(dist, k, seed=seed)
    else:
        labels, medoids = ref.single_link(dist, k), ()
    return similarity.ClusterAssignment(
        method=method,
        metric=metric,
        k=k,
        labels=labels,
        medoids=medoids,
        silhouette=ref.silhouette(dist, labels),
    )


def _assert_same_decisions(got, want):
    assert got.labels == want.labels
    assert got.medoids == want.medoids
    assert all(type(i) is int for i in got.labels + got.medoids)
    assert abs(got.silhouette - want.silhouette) <= 1e-9
    assert (got.silhouette < 0.35) == (want.silhouette < 0.35)


#: feature values: fractions, with the round ones detectors often emit
_PALETTE = (0.0, 0.25, 0.5, 1.0)


@st.composite
def _matrices(draw):
    """1-40 rows of 1-30 columns; half the rows copy 1-3 base rows."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 30))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    round_share = draw(st.sampled_from((0.0, 0.3, 0.9)))

    def fresh():
        return tuple(
            rnd.choice(_PALETTE) if rnd.random() < round_share
            else rnd.random()
            for _ in range(m)
        )

    bases = [fresh() for _ in range(draw(st.integers(1, 3)))]
    rows = [rnd.choice(bases) for _ in range(n // 2)]
    rows += [fresh() for _ in range(n - len(rows))]
    rnd.shuffle(rows)
    return rows


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    rows=_matrices(),
    k=st.integers(1, 5),
    metric=st.sampled_from(("euclidean", "manhattan")),
    method=st.sampled_from(("kmedoids", "single_link")),
    seed=st.integers(0, 2),
)
def test_cluster_rows_decides_as_the_oracle(rows, k, metric, method, seed):
    got = cluster_rows(rows, k=k, metric=metric, method=method, seed=seed)
    _assert_same_decisions(got, _oracle(rows, k, metric, method, seed))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(rows=_matrices(), k=st.integers(1, 5), seed=st.integers(0, 2))
def test_public_matrix_functions_decide_as_the_oracle(rows, k, seed):
    """kmedoids/single_link/silhouette on a full list-of-lists matrix."""
    dist = ref.pairwise_distances(rows)
    labels, medoids = similarity.kmedoids(dist, k, seed=seed)
    assert (labels, medoids) == ref.kmedoids(dist, k, seed=seed)
    assert similarity.single_link(dist, k) == ref.single_link(dist, k)
    assert abs(
        similarity.silhouette(dist, labels) - ref.silhouette(dist, labels)
    ) <= 1e-9
    assert np.allclose(
        similarity.pairwise_distances(rows), dist, rtol=1e-12, atol=0.0
    )


def test_duplicate_rows_share_rows_and_decisions():
    rows = [(0.0, 1.0), (0.5, 0.5), (0.0, 1.0), (0.5, 0.5), (0.9, 0.1)] * 8
    points = similarity._Points.from_rows(rows, "euclidean")
    assert len(points.dist) == 3
    assert points.first.tolist() == [0, 1, 4]
    for method in ("kmedoids", "single_link"):
        for k in (2, 3, 4):
            _assert_same_decisions(
                cluster_rows(rows, k=k, method=method),
                _oracle(rows, k, method=method),
            )


def test_empty_and_degenerate_inputs_match_the_oracle():
    assert cluster_rows([], k=2).labels == ()
    assert similarity.kmedoids([], 2) == ((), ())
    assert similarity.single_link([], 1) == ()
    for rows in ([(1.0,)], [(1.0,)] * 3, [(), ()]):
        for method in ("kmedoids", "single_link"):
            _assert_same_decisions(
                cluster_rows(rows, k=2, method=method),
                _oracle(rows, 2, method=method),
            )


def _oracle_cluster_rows(rows, k=2, metric="euclidean",
                         method="kmedoids", seed=0):
    return _oracle(rows, k, metric, method, seed)


def _corpus():
    for spec in list_properties(negative=None):
        for size in (4, 8, 16):
            if spec.paradigm != "omp" and size < spec.min_size:
                continue
            yield f"{spec.name}@{size}", lambda s=spec, n=size: s.run(
                size=n, num_threads=2, seed=1
            )
    for size in (16, 64):
        yield f"chain@{size}", lambda n=size: run_all_mpi_properties(
            size=n, seed=1
        )


def test_registry_and_chain_findings_match_the_oracle(monkeypatch):
    """Both statistical detectors, engine vs oracle, on real traces."""
    compared = 0
    for name, run in _corpus():
        result = run()
        events, final = result.recorder.events, result.final_time
        with monkeypatch.context() as patch:
            patch.setattr(stats_detector, "cluster_rows", _oracle_cluster_rows)
            want = analyze_events(
                events, total_time=final, detectors=STATISTICAL_DETECTORS
            )
        got = analyze_events(
            events, total_time=final, detectors=STATISTICAL_DETECTORS
        )
        assert got.findings == want.findings, name
        compared += 1
    assert compared > 60
