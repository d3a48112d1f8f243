"""Random forest of CART trees for binary outcomes.

Splits minimize Gini impurity: a candidate's quality is the impurity decrease

    delta_i = i(parent) - (N_L/N_p) * i(left) - (N_R/N_p) * i(right)

and a node keeps the best strictly positive candidate, ties broken by lower
feature index, then lower threshold (numeric) or lower code (categorical).
Numeric thresholds sit at midpoints between consecutive distinct sorted
values; categorical splits are one-vs-rest on a single code.

Feature importance is the training-weighted impurity decrease accumulated per
feature and averaged over trees, where each node contributes
(N_n / N) * delta_i_n with N the tree's bootstrap sample count.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from . import split
from .data import Dataset, design_matrix
from .errors import ValidationError
from .rng import make_rng
from .trees import LEAF, Tree, TreeBuilder, _check_matrix, predict_value, tree_to_dict

MODEL_FORMAT = "icui-model"
MODEL_VERSION = 1


@dataclass
class ForestParams:
    n_trees: int = 300
    max_depth: int | None = None
    min_samples_leaf: int = 5
    mtry: int | None = None  # None -> ceil(sqrt(n_features))
    bootstrap: bool = True

    def __post_init__(self):
        for name, ok, rule in (
            ("n_trees", self.n_trees >= 1, ">= 1"),
            ("min_samples_leaf", self.min_samples_leaf >= 1, ">= 1"),
            ("mtry", self.mtry is None or self.mtry >= 1, ">= 1"),
            ("max_depth", self.max_depth is None or self.max_depth >= 0, ">= 0"),
        ):
            if not ok:
                raise ValidationError(f"{name} must be {rule}, got {getattr(self, name)!r}")


@dataclass
class ForestModel:
    trees: list[Tree]
    params: ForestParams
    feature_names: list[str]
    feature_kinds: list[str]
    bootstrap_n: int
    seed: int


@dataclass
class ImportanceProfile:
    names: list[str]
    scores: np.ndarray
    normalized: bool


def gini(counts) -> float:
    """Gini impurity 1 - sum(p_k^2) of a two-class count vector."""
    c = np.asarray(counts, dtype=np.float64)
    if c.shape != (2,):
        raise ValidationError("gini expects a length-2 count vector")
    if (c < 0).any():
        raise ValidationError("gini counts must be nonnegative")
    if c[0] + c[1] <= 0:
        raise ValidationError("gini of an empty node is undefined")
    return _gini2(c[0], c[1])


def impurity_decrease(parent, left, right) -> float:
    """delta_i of a split, given class counts of parent and both children."""
    p = np.asarray(parent, dtype=np.float64)
    lo = np.asarray(left, dtype=np.float64)
    hi = np.asarray(right, dtype=np.float64)
    if not (np.array_equal(lo + hi, p)):
        raise ValidationError("child counts do not sum to parent counts")
    n = p[0] + p[1]
    n_l = lo[0] + lo[1]
    n_r = hi[0] + hi[1]
    if n_l <= 0 or n_r <= 0:
        raise ValidationError("split children must be non-empty")
    return gini(p) - (n_l / n * gini(lo) + n_r / n * gini(hi))


def _gini2(c0: float, c1: float) -> float:
    """`gini` of the counts (c0, c1), unchecked."""
    total = c0 + c1
    p0 = c0 / total
    p1 = c1 / total
    return 1.0 - (p0 * p0 + p1 * p1)


def _split_gain(l0: float, l1: float, r0: float, r1: float) -> float:
    """`impurity_decrease` of the children (l0, l1) and (r0, r1), unchecked."""
    p0 = l0 + r0
    p1 = l1 + r1
    n = p0 + p1
    n_l = l0 + l1
    n_r = r0 + r1
    return _gini2(p0, p1) - (n_l / n * _gini2(l0, l1) + n_r / n * _gini2(r0, r1))


def _gini_gains(n_l, p_l, n, pos, i_parent, *, msl):
    """Gini decrease of splits whose left child holds weight n_l, p_l of it positive.

    n and pos are the node's totals and i_parent its impurity; bootstrap
    weights are integers, so every way of summing them gives the same totals.
    A node's last sorted row leaves n_r = 0; the scanner drops that candidate.
    """
    n_r = n - n_l
    p_r = pos - p_l
    with np.errstate(divide="ignore", invalid="ignore"):
        p1l = p_l / n_l
        p0l = (n_l - p_l) / n_l
        i_l = 1.0 - (p0l * p0l + p1l * p1l)
        p1r = p_r / n_r
        p0r = (n_r - p_r) / n_r
        i_r = 1.0 - (p0r * p0r + p1r * p1r)
        gains = i_parent - (n_l / n * i_l + n_r / n * i_r)
    gains[(n_l < msl) | (n_r < msl)] = -np.inf
    return gains


def _fit_tree_matrix(x, y, kinds, params: ForestParams, rng, weights) -> Tree:
    """One CART tree on x, y; `weights` are per-row counts (bootstrap duplicates)."""
    n_features = x.shape[1]
    mtry = params.mtry if params.mtry is not None else math.ceil(math.sqrt(n_features))
    mtry = max(1, min(mtry, n_features))
    msl = float(params.min_samples_leaf)
    is_cat = split.categorical_mask(kinds)
    score = partial(_gini_gains, msl=msl)
    builder = TreeBuilder(track_class_counts=True)

    wy_all = weights * y
    rows0 = np.flatnonzero(weights > 0)
    stack = [(rows0, 0, -1, "left")]
    while stack:
        rows, depth, parent, side = stack.pop()
        w = weights[rows]
        wy = wy_all[rows]
        pos = float(wy.sum())
        n = float(w.sum())
        node = builder.add_node(n, pos / n, (n - pos, pos))
        if parent >= 0:
            if side == "left":
                builder.left[parent] = node
            else:
                builder.right[parent] = node

        depth_ok = params.max_depth is None or depth < params.max_depth
        if not depth_ok or pos == 0.0 or pos == n or n < 2 * msl:
            continue
        if mtry < n_features:
            feats = np.sort(rng.choice(n_features, size=mtry, replace=False))
        else:
            feats = np.arange(n_features)
        hit = split.best_split(x, rows, feats, is_cat, weights, wy_all, _gini2(n - pos, pos), score)
        if hit is None:
            continue
        _, f, thr, cat = hit
        col = x[rows, f]
        go_left = (col == thr) if cat else (col <= thr)
        p_l = float(wy[go_left].sum())
        n_l = float(w[go_left].sum())
        # Recompute the stored gain in `impurity_decrease`'s arithmetic; the
        # scanner mirrors it, so the two agree bit-for-bit on integer counts.
        gain = _split_gain(n_l - p_l, p_l, (n - pos) - (n_l - p_l), pos - p_l)
        if not gain > 0.0:
            continue
        builder.set_split(node, f, thr, cat, gain)
        # right pushed first so the left child is built (and numbered) first
        stack.append((rows[~go_left], depth + 1, node, "right"))
        stack.append((rows[go_left], depth + 1, node, "left"))
    return builder.build()


def fit_forest(ds: Dataset, params: ForestParams | None = None, seed: int = 0) -> ForestModel:
    """Fit a bootstrap ensemble; tree t draws from the stream (seed, "tree", t)."""
    params = params or ForestParams()
    if ds.labels is None:
        raise ValidationError("fit_forest requires labels")
    if ds.n_rows == 0:
        raise ValidationError("fit_forest requires rows")
    x, kinds, names = design_matrix(ds)
    y = ds.labels.astype(np.float64)
    n = ds.n_rows
    trees = []
    for t in range(params.n_trees):
        rng = make_rng(seed, "tree", t)
        if params.bootstrap:
            draw = rng.integers(0, n, size=n)
            weights = np.bincount(draw, minlength=n).astype(np.float64)
        else:
            weights = np.ones(n, dtype=np.float64)
        trees.append(_fit_tree_matrix(x, y, kinds, params, rng, weights))
    return ForestModel(
        trees=trees,
        params=params,
        feature_names=names,
        feature_kinds=kinds,
        bootstrap_n=n,
        seed=seed,
    )


def predict_proba_forest(model: ForestModel, x) -> np.ndarray:
    """Probability of class 1: mean leaf class-1 fraction over trees."""
    x = _check_matrix(x, len(model.feature_names))
    acc = np.zeros(x.shape[0], dtype=np.float64)
    for tree in model.trees:
        acc += predict_value(tree, x)
    return acc / len(model.trees)


def forest_importance(model: ForestModel, normalize: bool = True) -> ImportanceProfile:
    """Per-feature mean of (N_n / N) * delta_i_n over trees (globally normalized)."""
    n_features = len(model.feature_names)
    acc = np.zeros(n_features, dtype=np.float64)
    for tree in model.trees:
        internal = tree.feature != LEAF
        contrib = (tree.n_samples[internal] / model.bootstrap_n) * tree.gain[internal]
        per_tree = np.zeros(n_features, dtype=np.float64)
        np.add.at(per_tree, tree.feature[internal], contrib)
        acc += per_tree
    raw = acc / len(model.trees)
    if not normalize:
        return ImportanceProfile(names=list(model.feature_names), scores=raw, normalized=False)
    total = float(raw.sum())
    if total > 0.0:
        return ImportanceProfile(names=list(model.feature_names), scores=raw / total, normalized=True)
    return ImportanceProfile(names=list(model.feature_names), scores=raw, normalized=False)


def forest_to_dict(model: ForestModel) -> dict:
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "kind": "forest",
        "params": asdict(model.params),
        "feature_names": list(model.feature_names),
        "feature_kinds": list(model.feature_kinds),
        "bootstrap_n": model.bootstrap_n,
        "seed": model.seed,
        "trees": [tree_to_dict(t) for t in model.trees],
    }
