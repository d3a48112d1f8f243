"""Test-only references for `icui.attribution.tree_shap`.

`shapley_bruteforce` enumerates every feature subset against the definition
of the path-dependent game in `icui.attribution`'s docstring: exact rational
subset weights, and each f(S) by a weighted descent of every tree.

`tree_shap_oracle` solves TreeSHAP one (leaf, pattern) pair at a time.  It is
the per-pattern algorithm `icui.attribution.tree_shap` used before it
solved every pair of one path length in a single vectorized pass; the bodies of
`_sym_poly`, `_leaf_pattern_phi` and the per-leaf loop are kept unchanged.
The leaf decomposition (`_tree_leaves`, `_follows`) and the Shapley weight
row are shared with the package.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from icui.attribution import (
    AttributionMatrix,
    _ensemble_views,
    _follows,
    _PathLeaf,
    _tree_leaves,
    _weight_row,
)
from icui.boost import BoostedModel, predict_margin
from icui.errors import ValidationError
from icui.forest import ForestModel, predict_proba_forest
from icui.trees import LEAF, Tree, _check_matrix

BRUTEFORCE_MAX_FEATURES = 20


def model_output(model, x) -> np.ndarray:
    """The quantity attributions decompose: probability (forest) or margin."""
    if isinstance(model, ForestModel):
        return predict_proba_forest(model, x)
    if isinstance(model, BoostedModel):
        return predict_margin(model, x)
    raise ValidationError(f"unsupported model type {type(model).__name__}")


# ---------------------------------------------------------------------------
# brute force (oracle)


def subset_weight_table(n_features: int) -> list[Fraction]:
    """Exact Shapley subset weights by |S|, for S within F minus one player."""
    if n_features < 1:
        raise ValidationError("need at least one feature")
    nf = math.factorial(n_features)
    return [
        Fraction(math.factorial(s) * math.factorial(n_features - s - 1), nf)
        for s in range(n_features)
    ]


def coalition_value(model, row, subset) -> float:
    """Definitional f(S) at one row: weighted descent with S's features fixed."""
    views, offset, _, names = _ensemble_views(model)
    x = np.asarray(row, dtype=np.float64)
    if x.shape != (len(names),):
        raise ValidationError(f"row must have {len(names)} values")
    fixed = set(int(j) for j in subset)

    def walk(tree: Tree, node: int, weight: float) -> float:
        if tree.feature[node] == LEAF:
            return weight * tree.value[node]
        f = int(tree.feature[node])
        thr = tree.threshold[node]
        lo, hi = int(tree.left[node]), int(tree.right[node])
        if f in fixed:
            go_left = (x[f] == thr) if tree.categorical[node] else (x[f] <= thr)
            return walk(tree, lo if go_left else hi, weight)
        n_p = tree.n_samples[node]
        acc = walk(tree, lo, weight * (tree.n_samples[lo] / n_p))
        acc += walk(tree, hi, weight * (tree.n_samples[hi] / n_p))
        return acc

    total = offset
    for tree, scale in views:
        total += scale * walk(tree, 0, 1.0)
    return float(total)


def _all_subset_values(model, row) -> np.ndarray:
    """f(S) for every subset, S encoded as a bitmask index.

    Performs the same definitional descent as `coalition_value`, batched over
    all subsets at once: the recursion carries a weight vector indexed by
    subset, split at each node into the in-S branch-following part and the
    out-of-S weighted-descent part.
    """
    views, offset, _, names = _ensemble_views(model)
    n_features = len(names)
    x = np.asarray(row, dtype=np.float64)
    n_subsets = 1 << n_features
    bit = (np.arange(n_subsets, dtype=np.int64)[:, None] >> np.arange(n_features)) & 1
    f_values = np.full(n_subsets, offset, dtype=np.float64)

    def walk(tree: Tree, node: int, weight: np.ndarray, scale: float) -> None:
        if tree.feature[node] == LEAF:
            f_values[:] += scale * tree.value[node] * weight
            return
        f = int(tree.feature[node])
        thr = tree.threshold[node]
        lo, hi = int(tree.left[node]), int(tree.right[node])
        go_left = (x[f] == thr) if tree.categorical[node] else (x[f] <= thr)
        has = bit[:, f] == 1
        n_p = tree.n_samples[node]
        w_left = weight * np.where(has, 1.0 if go_left else 0.0, tree.n_samples[lo] / n_p)
        w_right = weight * np.where(has, 0.0 if go_left else 1.0, tree.n_samples[hi] / n_p)
        walk(tree, lo, w_left, scale)
        walk(tree, hi, w_right, scale)

    ones = np.ones(n_subsets, dtype=np.float64)
    for tree, scale in views:
        walk(tree, 0, ones, scale)
    return f_values


def shapley_bruteforce(model, row) -> tuple[np.ndarray, float]:
    """Exact Shapley values by full subset enumeration (guarded to 20 features).

    Subset weights are exact rationals; per-feature sums are accumulated with
    compensated summation.
    """
    _, _, _, names = _ensemble_views(model)
    n_features = len(names)
    if n_features > BRUTEFORCE_MAX_FEATURES:
        raise ValidationError(
            f"brute force is limited to {BRUTEFORCE_MAX_FEATURES} features, got {n_features}"
        )
    f_values = _all_subset_values(model, row)
    masks = np.arange(1 << n_features, dtype=np.int64)
    sizes = np.zeros(masks.size, dtype=np.int64)
    for j in range(n_features):
        sizes += (masks >> j) & 1
    weights = subset_weight_table(n_features)
    phi = np.zeros(n_features, dtype=np.float64)
    for i in range(n_features):
        without = np.flatnonzero((masks >> i) & 1 == 0)
        terms = [
            float(weights[int(sizes[s])]) * (f_values[s | (1 << i)] - f_values[s])
            for s in without
        ]
        phi[i] = math.fsum(terms)
    return phi, float(f_values[0])


# ---------------------------------------------------------------------------
# per-pattern TreeSHAP


def _sym_poly(values: np.ndarray) -> np.ndarray:
    """Elementary symmetric polynomials e_0..e_q of the given values."""
    e = np.zeros(values.size + 1, dtype=np.float64)
    e[0] = 1.0
    for k, v in enumerate(values, start=1):
        e[1 : k + 1] = e[1 : k + 1] + v * e[0:k]
    return e


def _leaf_pattern_phi(leaf: _PathLeaf, pattern: np.ndarray) -> np.ndarray:
    """phi contribution of one leaf for one d-pattern, per path feature."""
    m = leaf.feats.size
    out = np.empty(m, dtype=np.float64)
    c = _weight_row(m)
    for i in range(m):
        others = np.arange(m) != i
        d_others = pattern[others]
        r_others = leaf.r[others]
        r1 = r_others[d_others]
        r0_prod = float(np.prod(r_others[~d_others])) if (~d_others).any() else 1.0
        e = _sym_poly(r1)
        q = r1.size
        w = 0.0
        for s in range(q + 1):
            w += c[s] * e[q - s]
        d_i = 1.0 if pattern[i] else 0.0
        out[i] = leaf.value * (d_i - leaf.r[i]) * r0_prod * w
    return out


def tree_shap_oracle(model, x) -> AttributionMatrix:
    """`tree_shap` with one `_leaf_pattern_phi` call per (leaf, pattern) pair."""
    views, offset, space, names = _ensemble_views(model)
    n_features = len(names)
    x = _check_matrix(x, n_features)
    n = x.shape[0]
    phi = np.zeros((n, n_features), dtype=np.float64)
    base = offset

    for tree, scale in views:
        for leaf in _tree_leaves(tree, scale):
            base += leaf.value * leaf.frac
            m = leaf.feats.size
            if m == 0:
                continue
            d = np.empty((n, m), dtype=bool)
            for j in range(m):
                d[:, j] = _follows(leaf.splits[j], x[:, leaf.feats[j]])
            if m <= 62:
                codes = d @ (np.int64(1) << np.arange(m, dtype=np.int64))
                uniq, inverse = np.unique(codes, return_inverse=True)
                patterns = ((uniq[:, None] >> np.arange(m)) & 1).astype(bool)
            else:
                patterns, inverse = np.unique(d, axis=0, return_inverse=True)
            contrib = np.empty((patterns.shape[0], m), dtype=np.float64)
            for pi in range(patterns.shape[0]):
                contrib[pi] = _leaf_pattern_phi(leaf, patterns[pi])
            for j in range(m):
                phi[:, leaf.feats[j]] += contrib[inverse, j]
    return AttributionMatrix(phi=phi, base_value=float(base), output_space=space, feature_names=names)
