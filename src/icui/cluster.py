"""1-D k-means over importance scores and ranked-cluster reporting.

Lloyd's algorithm minimizes sum over clusters of sum over members of
(x - mu_c)^2, seeded with k-means++ initialization.  A cluster's importance
is the plain sum of its members' scores; clusters are reported in descending
order of that sum.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .forest import ImportanceProfile
from .rng import make_rng

# Lloyd iterations stop when the assignment repeats, when no centroid moves by
# KMEANS_TOL or more, or after KMEANS_MAX_ITER iterations.
KMEANS_TOL = 1e-10
KMEANS_MAX_ITER = 300


@dataclass
class ClusterModel:
    centroids: np.ndarray      # (k,)
    assignment: np.ndarray     # (n,) cluster id per value
    objective: float           # within-cluster sum of squares at convergence
    iterations: int
    objective_history: list[float]  # objective after each Lloyd iteration
    k: int
    seed: int


@dataclass
class ClusterRank:
    rank: int                  # 1-based, descending total importance
    cluster_id: int
    total_importance: float
    members: list[int]         # feature indices, descending score


@dataclass
class ClusterReport:
    k: int
    ranks: list[ClusterRank]
    feature_names: list[str]


@dataclass
class HeatmapTable:
    feature_names: list[str]   # rows, descending mean importance
    column_labels: list[str]   # fold-major: fold1_rank1 .. fold1_rankK, fold2_rank1 ..
    cells: np.ndarray          # (n_features, n_folds * k)


def _assign(values: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # argmin returns the first minimum, so ties go to the lower cluster id
    dist = (values[:, None] - centroids[None, :]) ** 2
    return np.argmin(dist, axis=1)


def _repair_empty(values, centroids, assign, k):
    """Give each empty cluster the point farthest from its assigned centroid."""
    while True:
        counts = np.bincount(assign, minlength=k)
        empties = np.flatnonzero(counts == 0)
        if empties.size == 0:
            return
        target = int(empties[0])
        movable = counts[assign] > 1
        if not movable.any():
            raise ValidationError("cannot repair empty cluster: no donor points")
        dist = (values - centroids[assign]) ** 2
        dist[~movable] = -np.inf
        src = int(np.argmax(dist))
        assign[src] = target
        centroids[target] = values[src]


def kmeans_1d(values, k: int, seed: int = 0) -> ClusterModel:
    """Seeded k-means++ then Lloyd iterations on a 1-D array.

    If the array has fewer than k distinct values, k is reduced to the
    distinct count (with a warning).  The final assignment maps every value
    to its nearest centroid, ties to the lower cluster id, and no cluster is
    empty.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ValidationError("values must be a non-empty 1-D array")
    if not np.isfinite(values).all():
        raise ValidationError("values must be finite")
    if k < 1:
        raise ValidationError("k must be >= 1")
    n_distinct = int(np.count_nonzero(np.diff(np.sort(values)))) + 1  # np.unique would import numpy.ma
    if k > n_distinct:
        warnings.warn(
            f"k={k} exceeds {n_distinct} distinct values; reducing k to {n_distinct}",
            stacklevel=2,
        )
        k = n_distinct

    rng = make_rng(seed, "kmeans")
    n = values.size

    # k-means++ seeding
    centroids = np.empty(k, dtype=np.float64)
    centroids[0] = values[int(rng.integers(n))]
    d2 = (values - centroids[0]) ** 2
    for j in range(1, k):
        total = d2.sum()
        idx = int(rng.choice(n, p=d2 / total))
        centroids[j] = values[idx]
        d2 = np.minimum(d2, (values - centroids[j]) ** 2)

    assign = _assign(values, centroids)
    _repair_empty(values, centroids, assign, k)
    history: list[float] = []
    iterations = 0
    for _ in range(KMEANS_MAX_ITER):
        iterations += 1
        prev_centroids = centroids.copy()
        sums = np.bincount(assign, weights=values, minlength=k)
        counts = np.bincount(assign, minlength=k)
        centroids = sums / counts
        new_assign = _assign(values, centroids)
        _repair_empty(values, centroids, new_assign, k)
        history.append(float(((values - centroids[new_assign]) ** 2).sum()))
        converged = bool((new_assign == assign).all())
        assign = new_assign
        if converged or float(np.abs(centroids - prev_centroids).max()) < KMEANS_TOL:
            break
    return ClusterModel(
        centroids=centroids,
        assignment=assign,
        objective=history[-1],
        iterations=iterations,
        objective_history=history,
        k=k,
        seed=seed,
    )


def cluster_importance(
    profile: ImportanceProfile,
    k: int = 20,
    seed: int = 0,
) -> tuple[ClusterModel, ClusterReport]:
    """Cluster importance scores and rank clusters by their summed importance.

    Rank ties break toward the cluster holding the lowest feature index;
    members are listed by descending score (index ascending on ties).
    """
    scores = np.asarray(profile.scores, dtype=np.float64)
    if not (scores > 0).any():
        raise ValidationError("importance profile has no positive scores")
    model = kmeans_1d(scores, k, seed)
    entries = []
    for cid in range(model.k):
        members = np.flatnonzero(model.assignment == cid)
        total = float(scores[members].sum())
        order = np.lexsort((members, -scores[members]))
        entries.append((cid, total, [int(m) for m in members[order]], int(members.min())))
    entries.sort(key=lambda e: (-e[1], e[3]))
    ranks = [
        ClusterRank(rank=i + 1, cluster_id=cid, total_importance=total, members=members)
        for i, (cid, total, members, _) in enumerate(entries)
    ]
    return model, ClusterReport(k=model.k, ranks=ranks, feature_names=list(profile.names))


def fold_mean_order(profiles: list[ImportanceProfile]) -> tuple[np.ndarray, np.ndarray]:
    """Each feature's mean score over the profiles, and the features by descending mean, ties by index."""
    mean = np.zeros(len(profiles[0].names), dtype=np.float64)
    for p in profiles:
        mean += p.scores
    mean /= len(profiles)
    return mean, np.lexsort((np.arange(mean.size), -mean))


def build_heatmap(profiles: list[ImportanceProfile], reports: list[ClusterReport]) -> HeatmapTable:
    """Fold-major membership-weighted importance table.

    Row order: features by descending mean importance across folds.  Cell
    (feature, fold f rank r) holds the feature's fold-f importance if it
    belongs to the rank-r cluster of fold f, else 0; each feature lights
    exactly one column per fold.
    """
    if not profiles or len(profiles) != len(reports):
        raise ValidationError("need one importance profile per cluster report")
    names = list(profiles[0].names)
    n_features = len(names)
    for p in profiles:
        if list(p.names) != names:
            raise ValidationError("importance profiles disagree on feature names")
    ks = [r.k for r in reports]
    width = sum(ks)
    _, row_order = fold_mean_order(profiles)

    cells = np.zeros((n_features, width), dtype=np.float64)
    labels: list[str] = []
    col = 0
    for f, (profile, report) in enumerate(zip(profiles, reports), start=1):
        for rank_entry in report.ranks:
            labels.append(f"fold{f}_rank{rank_entry.rank}")
            for member in rank_entry.members:
                cells[member, col] = profile.scores[member]
            col += 1
    return HeatmapTable(
        feature_names=[names[i] for i in row_order],
        column_labels=labels,
        cells=cells[row_order],
    )
