"""Test-only reference: TreeSHAP solved one (leaf, pattern) pair at a time.

This is the per-pattern algorithm `icui.attribution.tree_shap` used before it
solved every pair of one path length in a single vectorized pass; the bodies of
`_sym_poly`, `_leaf_pattern_phi` and the per-leaf loop are kept unchanged.
The leaf decomposition (`_tree_leaves`, `_eval_cond`) and the Shapley weight
row are shared with the package.
"""

from __future__ import annotations

import numpy as np

from icui.attribution import (
    AttributionMatrix,
    _ensemble_views,
    _eval_cond,
    _PathLeaf,
    _tree_leaves,
    _weight_row,
)
from icui.trees import _check_matrix


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
                d[:, j] = _eval_cond(leaf.conds[j], x[:, leaf.feats[j]])
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
