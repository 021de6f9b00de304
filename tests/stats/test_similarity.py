"""Clustering: k-medoids, single-link, silhouette."""

import pytest

from repro.stats import (
    cluster_rows,
    euclidean,
    kmedoids,
    manhattan,
    pairwise_distances,
    silhouette,
    single_link,
)

#: two tight blobs around (0, 0) and (10, 10), one per half
BLOBS = [
    (0.0, 0.1),
    (0.1, 0.0),
    (0.2, 0.1),
    (10.0, 10.1),
    (10.1, 10.0),
    (10.2, 9.9),
]


def test_metrics():
    assert euclidean((0.0, 0.0), (3.0, 4.0)) == pytest.approx(5.0)
    assert manhattan((0.0, 0.0), (3.0, 4.0)) == pytest.approx(7.0)


def test_pairwise_matrix_is_symmetric_with_zero_diagonal():
    dist = pairwise_distances(BLOBS)
    n = len(BLOBS)
    for i in range(n):
        assert dist[i][i] == 0.0
        for j in range(n):
            assert dist[i][j] == dist[j][i]


@pytest.mark.parametrize("method", ["kmedoids", "single_link"])
def test_two_blobs_split_cleanly(method):
    assign = cluster_rows(BLOBS, k=2, method=method)
    assert assign.labels[:3] == (assign.labels[0],) * 3
    assert assign.labels[3:] == (assign.labels[3],) * 3
    assert assign.labels[0] != assign.labels[3]
    assert assign.sizes() == (3, 3)
    assert assign.silhouette > 0.9


def test_kmedoids_deterministic_across_seeds_on_clear_structure():
    dist = pairwise_distances(BLOBS)
    reference = kmedoids(dist, 2, seed=0)
    for seed in (1, 7, 12345):
        assert kmedoids(dist, 2, seed=seed) == reference


def test_kmedoids_k_clamped_to_n():
    dist = pairwise_distances(BLOBS[:2])
    labels, medoids = kmedoids(dist, 5)
    assert len(labels) == 2
    assert len(medoids) == 2


def test_kmedoids_rejects_bad_k():
    with pytest.raises(ValueError):
        kmedoids(pairwise_distances(BLOBS), 0)
    with pytest.raises(ValueError):
        single_link(pairwise_distances(BLOBS), 0)


def test_single_link_labels_renumbered_by_first_member():
    labels = single_link(pairwise_distances(BLOBS), 2)
    # cluster containing row 0 is always label 0
    assert labels[0] == 0
    assert labels[3] == 1


def test_silhouette_degenerate_labelings_score_zero():
    dist = pairwise_distances(BLOBS)
    assert silhouette(dist, [0] * len(BLOBS)) == 0.0
    assert silhouette([[0.0]], [0]) == 0.0


def test_silhouette_prefers_true_split():
    dist = pairwise_distances(BLOBS)
    good = silhouette(dist, [0, 0, 0, 1, 1, 1])
    bad = silhouette(dist, [0, 1, 0, 1, 0, 1])
    assert good > 0.9
    assert bad < good


def test_unknown_metric_and_method_raise():
    with pytest.raises(ValueError):
        pairwise_distances(BLOBS, metric="cosine")
    with pytest.raises(ValueError):
        cluster_rows(BLOBS, method="dbscan")
