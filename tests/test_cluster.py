from __future__ import annotations

import numpy as np
import pytest

from icui.cluster import (
    build_heatmap,
    cluster_importance,
    kmeans_1d,
)
from icui.errors import ValidationError
from icui.forest import ImportanceProfile


def _wcss(values, model):
    return float(((values - model.centroids[model.assignment]) ** 2).sum())


def _contiguous_optimum(values, k):
    """Global 1-D k-means optimum by dynamic programming over sorted blocks."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    n = v.size
    pre = np.concatenate([[0.0], np.cumsum(v)])
    pre2 = np.concatenate([[0.0], np.cumsum(v * v)])

    def block_cost(i, j):  # v[i:j]
        m = j - i
        s = pre[j] - pre[i]
        return (pre2[j] - pre2[i]) - s * s / m

    inf = float("inf")
    dp = [[inf] * (n + 1) for _ in range(k + 1)]
    dp[0][0] = 0.0
    for c in range(1, k + 1):
        for j in range(1, n + 1):
            for i in range(c - 1, j):
                cand = dp[c - 1][i] + block_cost(i, j)
                if cand < dp[c][j]:
                    dp[c][j] = cand
    return dp[k][n]


# ----------------------------------------------------------------- kmeans core


def test_four_point_instance_recovers_contiguous_optimum():
    values = np.array([0.50, 0.49, 0.01, 0.00])
    for seed in range(10):
        model = kmeans_1d(values, 2, seed=seed)
        a = model.assignment
        assert a[0] == a[1] and a[2] == a[3] and a[0] != a[2]
        assert model.objective == pytest.approx(1e-4, rel=1e-9)


def test_objective_monotone_nonincreasing_100_instances():
    rng = np.random.default_rng(31)
    for trial in range(100):
        n = int(rng.integers(5, 200))
        values = rng.random(n) * float(rng.integers(1, 100))
        k = int(rng.integers(1, min(9, n)))
        model = kmeans_1d(values, k, seed=trial)
        h = model.objective_history
        assert len(h) == model.iterations
        slack = 1e-12 * max(1.0, h[0])
        for a, b in zip(h, h[1:]):
            assert b <= a + slack
        assert model.objective == h[-1]


def test_final_state_invariants_random_instances():
    rng = np.random.default_rng(5)
    for trial in range(50):
        n = int(rng.integers(6, 120))
        values = rng.standard_normal(n)
        k = int(rng.integers(2, 7))
        model = kmeans_1d(values, k, seed=trial)
        counts = np.bincount(model.assignment, minlength=model.k)
        assert (counts >= 1).all()
        # nearest centroid, ties to the lower cluster id
        dist = (values[:, None] - model.centroids[None, :]) ** 2
        assert np.array_equal(model.assignment, np.argmin(dist, axis=1))
        assert model.objective == _wcss(values, model)
        # never better than the global optimum
        assert model.objective >= _contiguous_optimum(values, model.k) - 1e-9


def test_small_instances_reach_global_optimum():
    rng = np.random.default_rng(77)
    hits = 0
    for trial in range(20):
        values = rng.random(int(rng.integers(5, 10)))
        opt = _contiguous_optimum(values, 2)
        best = min(kmeans_1d(values, 2, seed=s).objective for s in range(5))
        if best <= opt + 1e-9:
            hits += 1
    assert hits >= 18  # k-means++ with restarts all but always lands the 1-D optimum


def test_scale_equivariance_power_of_two():
    rng = np.random.default_rng(12)
    values = rng.random(40)
    base = kmeans_1d(values, 4, seed=3)
    scaled = kmeans_1d(2.0 * values, 4, seed=3)
    assert np.array_equal(base.assignment, scaled.assignment)
    assert np.array_equal(2.0 * base.centroids, scaled.centroids)
    assert scaled.objective == 4.0 * base.objective


def test_deterministic_per_seed():
    rng = np.random.default_rng(0)
    values = rng.random(66)
    a = kmeans_1d(values, 20, seed=9)
    b = kmeans_1d(values, 20, seed=9)
    assert np.array_equal(a.assignment, b.assignment)
    assert np.array_equal(a.centroids, b.centroids)
    assert a.objective_history == b.objective_history


def test_k20_on_66_values_fills_every_cluster():
    rng = np.random.default_rng(41)
    values = rng.random(66)
    model = kmeans_1d(values, 20, seed=0)
    assert model.k == 20
    assert np.bincount(model.assignment, minlength=20).min() >= 1


def test_k_reduced_to_distinct_count_with_warning():
    with pytest.warns(UserWarning, match="reducing k"):
        model = kmeans_1d([1.0, 1.0, 1.0, 2.0], 3)
    assert model.k == 2
    assert np.bincount(model.assignment, minlength=2).min() >= 1


@pytest.mark.parametrize(
    "values",
    [[0.0, -0.0, 1.0], [-0.0, -0.0], [3.0, 1.0, 3.0, 2.0, 1.0], [-0.0, 0.0, 2.5, -0.0, 2.5, 7.0],
     (np.random.default_rng(3).integers(-4, 5, 60) * 0.5).tolist()],
)
def test_distinct_count_matches_np_unique(values):
    """Ties and -0.0/0.0 count as np.unique counts them."""
    n = np.unique(values).size
    with pytest.warns(UserWarning, match=f"exceeds {n} distinct values"):
        model = kmeans_1d(values, n + 1)
    assert model.k == n


def test_k_equals_one_yields_mean_centroid():
    values = np.array([1.0, 2.0, 3.0, 6.0])
    model = kmeans_1d(values, 1, seed=0)
    assert model.k == 1
    assert model.centroids.tolist() == [3.0]
    assert model.assignment.tolist() == [0, 0, 0, 0]


def test_kmeans_validation():
    with pytest.raises(ValidationError):
        kmeans_1d([], 2)
    with pytest.raises(ValidationError):
        kmeans_1d([1.0, np.nan], 2)
    with pytest.raises(ValidationError):
        kmeans_1d([1.0, 2.0], 0)
    with pytest.raises(ValidationError):
        kmeans_1d(np.zeros((2, 2)), 2)


# --------------------------------------------------------- cluster importance


def _profile(scores, names=None):
    scores = np.asarray(scores, dtype=np.float64)
    names = names or [f"f{i}" for i in range(scores.size)]
    return ImportanceProfile(names=list(names), scores=scores, normalized=True)


def test_cluster_importance_ranks_by_total():
    # seed 1 reaches the global optimum {0.5, 0.3} | {0.1, 0.1}
    model, report = cluster_importance(_profile([0.5, 0.3, 0.1, 0.1]), k=2, seed=1)
    assert report.k == 2
    assert report.ranks[0].rank == 1
    assert report.ranks[0].members == [0, 1]
    assert report.ranks[0].total_importance == pytest.approx(0.8)
    assert report.ranks[1].members == [2, 3]
    assert report.ranks[1].total_importance == pytest.approx(0.2)
    assert model.k == 2


def test_cluster_importance_rank_tie_prefers_lower_feature_index():
    # totals tie at 0.5; the cluster holding feature 0 ranks first
    _, report = cluster_importance(_profile([0.25, 0.25, 0.5]), k=2, seed=0)
    totals = [r.total_importance for r in report.ranks]
    assert totals[0] == pytest.approx(totals[1])
    assert report.ranks[0].members == [0, 1]
    assert report.ranks[1].members == [2]


def test_cluster_importance_members_sorted_by_score_then_index():
    _, report = cluster_importance(_profile([0.1, 0.4, 0.2, 0.4]), k=1, seed=0)
    assert report.ranks[0].members == [1, 3, 2, 0]


def test_cluster_importance_requires_positive_scores():
    with pytest.raises(ValidationError):
        cluster_importance(_profile([0.0, 0.0]), k=1)


def test_cluster_importance_propagates_k_reduction():
    with pytest.warns(UserWarning):
        _, report = cluster_importance(_profile([0.5, 0.5]), k=3, seed=0)
    assert report.k == 1


# --------------------------------------------------------------------- heatmap


def test_build_heatmap_layout():
    p1 = _profile([0.7, 0.3])
    p2 = _profile([0.6, 0.4])
    reports = [cluster_importance(p, k=2, seed=0)[1] for p in (p1, p2)]
    table = build_heatmap([p1, p2], reports)
    assert table.column_labels == ["fold1_rank1", "fold1_rank2", "fold2_rank1", "fold2_rank2"]
    assert table.feature_names == ["f0", "f1"]  # mean importance 0.65 > 0.35
    assert table.cells.tolist() == [
        [0.7, 0.0, 0.6, 0.0],
        [0.0, 0.3, 0.0, 0.4],
    ]


def test_build_heatmap_one_lit_column_per_fold():
    rng = np.random.default_rng(8)
    profiles = []
    reports = []
    for _ in range(5):
        scores = rng.random(12)
        scores /= scores.sum()
        p = _profile(scores)
        profiles.append(p)
        reports.append(cluster_importance(p, k=4, seed=1)[1])
    table = build_heatmap(profiles, reports)
    assert table.cells.shape == (12, 20)
    nonzero_per_fold = (table.cells.reshape(12, 5, 4) != 0).sum(axis=2)
    assert (nonzero_per_fold == 1).all()


def test_build_heatmap_row_order_is_mean_importance():
    p1 = _profile([0.1, 0.9])
    p2 = _profile([0.2, 0.8])
    reports = [cluster_importance(p, k=2, seed=0)[1] for p in (p1, p2)]
    table = build_heatmap([p1, p2], reports)
    assert table.feature_names == ["f1", "f0"]


def test_build_heatmap_validation():
    p = _profile([0.5, 0.5])
    with pytest.raises(ValidationError):
        build_heatmap([], [])
    q = _profile([0.5, 0.5], names=["x", "y"])
    _, rep = cluster_importance(p, k=1, seed=0)
    with pytest.raises(ValidationError):
        build_heatmap([p, q], [rep, rep])
