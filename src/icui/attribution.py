"""Shapley attributions for tree ensembles.

The game value of a feature subset S at row x is the path-dependent
conditional expectation: descend each tree from the root; at a split on a
feature in S follow x's branch, otherwise descend both children weighted by
their training sample fractions; average leaf values by the accumulated
weights.  phi_i is the Shapley value of that game,

    phi_i = sum over S subset of F\\{i} of
            |S|! (|F|-|S|-1)! / |F|! * [f(S + {i}) - f(S)]

Forests are attributed in probability space (the ensemble output is a mean of
leaf fractions), boosted models in margin space; either way the per-tree games
add, so attributions are computed tree by tree and summed.

The oracle, `shapley_bruteforce` in tests/shap_oracle.py, enumerates every
subset against the definition above; `tree_shap` decomposes each tree over its
leaves.  For a leaf L with value v, path features P, per-feature pass
probabilities r_j (product of child fractions over the path's splits on j) and
per-row indicators d_j (does `trees.goes_left` send x the path's way at each
of the path's splits on j), the leaf's game is v * prod_j (d_j if j in S else
r_j), whose Shapley values have a closed form in elementary symmetric
polynomials of the r_j.  Rows share a leaf's closed form when they share its
d-pattern, so the form is evaluated once per distinct (leaf, pattern) pair,
all pairs of one path length in one vectorized pass.  Both routes agree to float precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boost import BoostedModel
from .data import write_table
from .errors import ValidationError
from .forest import ForestModel, ImportanceProfile, normalized_profile
from .trees import LEAF, Tree, _check_matrix, goes_left

OUTPUT_PROBABILITY = "probability"
OUTPUT_MARGIN = "margin"


@dataclass
class AttributionMatrix:
    phi: np.ndarray  # (n_rows, n_features)
    base_value: float
    output_space: str
    feature_names: list[str]


def _ensemble_views(model) -> tuple[list[tuple[Tree, float]], float, str, list[str]]:
    """Per-tree (tree, output scale), constant offset, output space, names."""
    if isinstance(model, ForestModel):
        scale = 1.0 / len(model.trees)
        return [(t, scale) for t in model.trees], 0.0, OUTPUT_PROBABILITY, model.feature_names
    if isinstance(model, BoostedModel):
        eta = model.params.eta
        return [(t, eta) for t in model.trees], model.base_score, OUTPUT_MARGIN, model.feature_names
    raise ValidationError(f"unsupported model type {type(model).__name__}")


# ---------------------------------------------------------------------------
# polynomial per-leaf algorithm


@dataclass
class _PathLeaf:
    value: float      # leaf value, output scale applied
    frac: float       # training fraction reaching the leaf
    feats: np.ndarray  # distinct features on the path, first-encounter order
    r: np.ndarray      # per-feature pass probability
    splits: list       # per feature: the path's (threshold, categorical, went_left) splits on it


def _tree_leaves(tree: Tree, scale: float) -> list[_PathLeaf]:
    out: list[_PathLeaf] = []
    root_n = tree.n_samples[0]
    stack: list[tuple[int, dict, dict]] = [(0, {}, {})]
    while stack:
        node, splits, r = stack.pop()
        if tree.feature[node] == LEAF:
            feats = list(splits.keys())
            out.append(
                _PathLeaf(
                    value=float(tree.value[node]) * scale,
                    frac=float(tree.n_samples[node] / root_n),
                    feats=np.array(feats, dtype=np.int64),
                    r=np.array([r[f] for f in feats], dtype=np.float64),
                    splits=[splits[f] for f in feats],
                )
            )
            continue
        f = int(tree.feature[node])
        thr, cat = tree.threshold[node], bool(tree.categorical[node])
        n_p = tree.n_samples[node]
        for child, went_left in ((int(tree.right[node]), False), (int(tree.left[node]), True)):
            splits_c = dict(splits)
            splits_c[f] = splits.get(f, ()) + ((thr, cat, went_left),)
            r_c = dict(r)
            r_c[f] = r.get(f, 1.0) * (tree.n_samples[child] / n_p)
            stack.append((child, splits_c, r_c))
    return out


def _follows(splits, col: np.ndarray) -> np.ndarray:
    """d_j per row: does `col` take the path's branch at each of its `splits` on feature j?"""
    out = np.ones(col.size, dtype=bool)
    for thr, cat, went_left in splits:
        left = goes_left(col, thr, cat)
        out &= left if went_left else ~left
    return out


_WEIGHT_ROWS: dict[int, np.ndarray] = {}


def _weight_row(m: int) -> np.ndarray:
    """c[s] = s! (m-s-1)! / m! for s = 0..m-1."""
    row = _WEIGHT_ROWS.get(m)
    if row is None:
        fm = math.factorial(m)
        row = np.array([math.factorial(s) * math.factorial(m - s - 1) / fm for s in range(m)])
        _WEIGHT_ROWS[m] = row
    return row


def _pattern_phi(d: np.ndarray, r: np.ndarray, v: np.ndarray) -> np.ndarray:
    """phi of every (leaf, pattern) row of one path length m, per path feature.

    Row p is a leaf with value v[p] and pass probabilities r[p] seen under the
    d-pattern d[p].  For player i, the other features with d_j set contribute
    the elementary symmetric polynomials e of their r_j, the rest the product
    r0 of their r_j, and phi_i = v (d_i - r_i) r0 sum_s c[s] e[q - s], where q
    counts the others with d_j set.  Each row's scalars take the same IEEE
    operations in the same order as solving that row alone: masked-out terms
    are skipped rather than added as zeros, and the polynomial positions above
    a row's own degree stay exact zeros.
    """
    n_rows, m = d.shape
    c = _weight_row(m)
    rows = np.arange(n_rows)
    n_set = d.sum(axis=1)
    out = np.empty((n_rows, m), dtype=np.float64)
    for i in range(m):
        e = np.zeros((n_rows, m), dtype=np.float64)
        e[:, 0] = 1.0
        r0 = np.ones(n_rows, dtype=np.float64)
        width = 1  # e[:, width:] is zero in every row
        for j in range(m):
            if j == i:
                continue
            dj = d[:, j]
            rj = r[:, j]
            grown = e[:, 1 : width + 1] + rj[:, None] * e[:, :width]
            e[:, 1 : width + 1] = np.where(dj[:, None], grown, e[:, 1 : width + 1])
            r0 = np.where(dj, r0, r0 * rj)
            width += 1
        q = n_set - d[:, i]
        w = np.zeros(n_rows, dtype=np.float64)
        for s in range(m):
            term = c[s] * e[rows, np.maximum(q - s, 0)]
            w = np.where(s <= q, w + term, w)
        out[:, i] = v * (d[:, i] - r[:, i]) * r0 * w
    return out


def tree_shap(model, x) -> AttributionMatrix:
    """Shapley attributions for every row, polynomial in tree size.

    Exactly matches `shapley_bruteforce` in tests/shap_oracle.py (up to float
    error): each leaf's product game is solved in closed form and games add
    over leaves and trees.
    The closed form is evaluated once per path length m, for every distinct
    (leaf, d-pattern) pair of that length across all trees at once.
    """
    views, offset, space, names = _ensemble_views(model)
    n_features = len(names)
    x = _check_matrix(x, n_features)
    n = x.shape[0]
    phi = np.zeros((n, n_features), dtype=np.float64)
    base = offset

    # per leaf: its distinct d-patterns, grouped by path length m
    groups: dict[int, list[tuple[np.ndarray, _PathLeaf]]] = {}
    sizes: dict[int, int] = {}
    scatter: list[tuple[np.ndarray, int, int, np.ndarray]] = []  # feats, m, first row, inverse
    for tree, scale in views:
        seen = {}  # d_j per (feature, splits); sibling leaves share all but one
        for leaf in _tree_leaves(tree, scale):
            base += leaf.value * leaf.frac
            m = leaf.feats.size
            if m == 0:
                continue
            d = np.empty((n, m), dtype=bool)
            for j, key in enumerate(zip(leaf.feats.tolist(), leaf.splits)):
                if key not in seen:
                    seen[key] = _follows(key[1], x[:, key[0]])
                d[:, j] = seen[key]
            if m <= 62:
                codes = d @ (np.int64(1) << np.arange(m, dtype=np.int64))
                uniq, inverse = np.unique(codes, return_inverse=True)
                patterns = ((uniq[:, None] >> np.arange(m)) & 1).astype(bool)
            else:
                patterns, inverse = np.unique(d, axis=0, return_inverse=True)
            first = sizes.get(m, 0)
            scatter.append((leaf.feats, m, first, inverse))
            sizes[m] = first + patterns.shape[0]
            groups.setdefault(m, []).append((patterns, leaf))

    # per path length: every (leaf, pattern) pair of all trees in one pass
    contrib = {}
    for m, pairs in groups.items():
        counts = [patterns.shape[0] for patterns, _ in pairs]
        contrib[m] = _pattern_phi(
            np.concatenate([patterns for patterns, _ in pairs]),
            np.repeat(np.stack([leaf.r for _, leaf in pairs]), counts, axis=0),
            np.repeat(np.array([leaf.value for _, leaf in pairs]), counts),
        )

    # per leaf, in tree and leaf order: add each row's pair onto its features
    for feats, m, first, inverse in scatter:
        phi[:, feats] += contrib[m][first + inverse]
    return AttributionMatrix(phi=phi, base_value=float(base), output_space=space, feature_names=names)


def global_shap_importance(attr: AttributionMatrix) -> ImportanceProfile:
    """Mean absolute attribution per feature, normalized to sum to one."""
    if attr.phi.ndim != 2 or attr.phi.shape[0] == 0:
        raise ValidationError("attribution matrix must have at least one row")
    raw = np.abs(attr.phi).mean(axis=0)
    return normalized_profile(attr.feature_names, raw)


def attribution_to_csv(attr: AttributionMatrix, path: str) -> None:
    """CSV export: row_id, base_value, then one attribution column per feature."""
    base = repr(attr.base_value)
    rows = ([i, base, *map(repr, row.tolist())] for i, row in enumerate(attr.phi))
    write_table(path, ["row_id", "base_value"] + list(attr.feature_names), rows)
