"""Test-only reference: the per-feature numeric split scanners and the one-node search.

`forest_scan_numeric` and `boost_scan_numeric` are the scanners the forest
and boosting used before `icui.split` scanned every numeric feature of a node
in one 2-D pass.  Each scores one feature column `v` of a node and returns
(gain, threshold) or None.

`node_block` and `best_split` are the one-node search of the forest's
one-tree oracle (tests/forest_oracle.py), which grows one node at a time,
as the forest did before it grew several trees together: the node's rows
are sorted on their own and scanned as a block of one segment.  All bodies
are kept unchanged, except that the scanners place a threshold with
`_threshold`, the rule `icui.split.midpoints` applies.
"""

from __future__ import annotations

import numpy as np

from icui.split import categorical_mask, scan, winners  # categorical_mask: for forest_oracle


def _threshold(lo, hi) -> float:
    """The midpoint of lo < hi, or lo where it rounds onto hi or overflows (scikit-learn's rule)."""
    with np.errstate(over="ignore"):
        mid = (lo + hi) / 2.0
    return float(mid if lo <= mid < hi else lo)


def forest_scan_numeric(v, w, wy, n, pos, i_parent, msl):
    """Best boundary for one numeric feature; returns (gain, threshold) or None."""
    order = np.argsort(v, kind="stable")
    vs = v[order]
    cw = np.cumsum(w[order])
    cw1 = np.cumsum(wy[order])
    b = np.flatnonzero(vs[:-1] != vs[1:])
    if b.size == 0:
        return None
    n_l = cw[b]
    p_l = cw1[b]
    n_r = n - n_l
    p_r = pos - p_l
    valid = (n_l >= msl) & (n_r >= msl)
    if not valid.any():
        return None
    p1l = p_l / n_l
    p0l = (n_l - p_l) / n_l
    i_l = 1.0 - (p0l * p0l + p1l * p1l)
    p1r = p_r / n_r
    p0r = (n_r - p_r) / n_r
    i_r = 1.0 - (p0r * p0r + p1r * p1r)
    gains = i_parent - (n_l / n * i_l + n_r / n * i_r)
    gains[~valid] = -np.inf
    best = int(np.argmax(gains))
    if not gains[best] > 0.0:
        return None
    return float(gains[best]), _threshold(vs[b[best]], vs[b[best] + 1])


def boost_scan_numeric(v, g, h, lam, gamma, mcw, s_parent):
    order = np.argsort(v, kind="stable")
    vs = v[order]
    cg = np.cumsum(g[order])
    ch = np.cumsum(h[order])
    b = np.flatnonzero(vs[:-1] != vs[1:])
    if b.size == 0:
        return None
    g_l = cg[b]
    h_l = ch[b]
    g_r = cg[-1] - g_l
    h_r = ch[-1] - h_l
    valid = (h_l >= mcw) & (h_r >= mcw)
    if not valid.any():
        return None
    gains = 0.5 * (g_l * g_l / (h_l + lam) + g_r * g_r / (h_r + lam) - s_parent) - gamma
    gains[~valid] = -np.inf
    best = int(np.argmax(gains))
    if not gains[best] > 0.0:
        return None
    return float(gains[best]), _threshold(vs[b[best]], vs[b[best] + 1])


def node_block(x, rows, num):
    """The block of one node: `rows` (ascending), then rows stably sorted by each of `num`."""
    order = x[rows[:, None], num].argsort(axis=0, kind="stable")
    return np.concatenate((rows[None], rows[order.T]))


def best_split(x, rows, features, is_categorical, s1, s2, parent, score):
    """One node's best split over `features` (ascending column indices).

    `rows` are the node's rows, ascending; s1 and s2 are indexed by row.  The
    winner is the first feature with the strictly greatest positive gain;
    within a feature, the lowest threshold or code.  Returns (gain, feature,
    threshold, categorical) or None.
    """
    features = np.asarray(features, dtype=np.int64)
    cat = is_categorical[features]
    num = features[~cat]
    gains, thresholds = scan(
        x, node_block(x, rows, num), np.zeros(1, dtype=np.int64), num, features[cat],
        s1, s2, np.array([parent]), score,
    )
    f, gain = winners(gains)
    f = int(f[0])
    if not gain[0] > 0.0:
        return None
    return float(gain[0]), f, float(thresholds[f, 0]), bool(is_categorical[f])
