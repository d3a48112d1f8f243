"""Test-only references: Newton boosting's scalar formulas, and the depth-first
boosted grower with its split scanners.

`logistic_grad_hess`, `leaf_weight` and `split_gain` are the per-example
gradient and hessian, the leaf weight and the split score of `icui.boost`'s
docstring, one scalar at a time; `icui.boost._newton_gains` is `split_gain`
over whole candidate arrays.

The grower and scanners are `icui.boost`'s tree grower and `icui.split`'s per-node scanners as
they were before boosting grew the trees of many fits level by level over
presorted columns; their bodies are kept unchanged, except that
`_fit_round_tree` calls this module's `best_split` and `scan_numeric`
places a threshold by the rule of `icui.split.midpoints`.
`fit_boosted_matrix` here fits one model, one node at a time, re-sorting
every node's rows, and `icui.boost.fit_boosted_many` must return the same
trees for every job.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from conftest import TreeBuilder
from icui import split
from icui.boost import (
    OBJECTIVE_LOGISTIC,
    OBJECTIVE_SQUARED,
    BoostedModel,
    BoostParams,
    sigmoid,
)
from icui.errors import ValidationError
from icui.rng import make_rng
from icui.trees import predict_value


def logistic_grad_hess(margin: float, y: float) -> tuple[float, float]:
    """Gradient and hessian of the logistic loss at one example."""
    if y not in (0, 1):
        raise ValidationError("y must be 0 or 1")
    p = float(sigmoid(np.array([margin]))[0])
    return p - y, p * (1.0 - p)


def leaf_weight(grad_sum: float, hess_sum: float, reg_lambda: float) -> float:
    denom = hess_sum + reg_lambda
    if denom <= 0:
        raise ValidationError("hessian sum plus lambda must be positive")
    return -grad_sum / denom


def split_gain(
    g_left: float,
    h_left: float,
    g_right: float,
    h_right: float,
    reg_lambda: float,
    gamma: float = 0.0,
) -> float:
    s_l = g_left * g_left / (h_left + reg_lambda)
    s_r = g_right * g_right / (h_right + reg_lambda)
    g_p = g_left + g_right
    s_p = g_p * g_p / (h_left + h_right + reg_lambda)
    return 0.5 * (s_l + s_r - s_p) - gamma


def scan_numeric(x, rows, features, s1, s2, score):
    """Best boundary of each numeric column `features` of x over `rows`.

    s1 and s2 hold the statistics of the node's rows, aligned with `rows`.
    Returns (gains, thresholds), one entry per feature; a feature whose gain
    is not positive has no split.  Each (rows x features) block is dropped
    as soon as it is used, which keeps the peak memory of a fit down.
    """
    xs = x[np.ix_(rows, features)]
    order = np.argsort(xs, axis=0, kind="stable")
    vs = np.take_along_axis(xs, order, axis=0)
    del xs
    c1 = s1[order]
    np.cumsum(c1, axis=0, out=c1)
    c2 = s2[order]
    np.cumsum(c2, axis=0, out=c2)
    del order
    gains = score(c1[:-1], c2[:-1], c1[-1], c2[-1])
    del c1, c2
    gains[vs[:-1] == vs[1:]] = -np.inf
    best = np.argmax(gains, axis=0)
    cols = np.arange(gains.shape[1])
    lo, hi = vs[best, cols], vs[best + 1, cols]
    with np.errstate(over="ignore"):
        mid = (lo + hi) / 2.0
    # the midpoint, or lo where it rounds onto hi or overflows (scikit-learn's rule)
    return gains[best, cols], np.where((lo <= mid) & (mid < hi), mid, lo)


def scan_categorical(col, s1, s2, score):
    """Best one-vs-rest code of one categorical column: (gain, code) or None."""
    codes = col.astype(np.int64)
    c1 = np.bincount(codes, weights=s1)
    c2 = np.bincount(codes, weights=s2)
    present = np.flatnonzero(np.bincount(codes) > 0)
    if present.size < 2:
        return None
    gains = score(c1[present], c2[present], c1.sum(), c2.sum())
    best = int(np.argmax(gains))
    if not gains[best] > 0.0:
        return None
    return float(gains[best]), float(present[best])


def best_split(x, rows, features, is_categorical, s1, s2, score):
    """The node's best split over `features` (ascending column indices).

    The winner is the first feature, in the given order, with the strictly
    greatest positive gain; within a feature, the lowest threshold or code.
    Returns (gain, feature, threshold, categorical) or None.
    """
    features = np.asarray(features, dtype=np.int64)
    cat = is_categorical[features]
    gains = np.full(features.size, -np.inf)
    thresholds = np.zeros(features.size)
    num = ~cat
    if rows.size > 1 and num.any():
        gains[num], thresholds[num] = scan_numeric(x, rows, features[num], s1, s2, score)
    for i in np.flatnonzero(cat):
        hit = scan_categorical(x[rows, features[i]], s1, s2, score)
        if hit is not None:
            gains[i], thresholds[i] = hit
    gains[~(gains > 0.0)] = -np.inf
    i = int(np.argmax(gains))
    if not gains[i] > 0.0:
        return None
    return float(gains[i]), int(features[i]), float(thresholds[i]), bool(cat[i])


def _newton_gains(g_l, h_l, g_t, h_t, *, lam, gamma, mcw, s_parent):
    """split_gain of splits whose left child sums to (g_l, h_l) in a node summing to (g_t, h_t).

    The operands are (rows x features) blocks, so split_gain's arithmetic runs
    in place, in the same order: every temporary would add to a fit's peak
    memory.
    """
    g_r = g_t - g_l
    h_r = h_t - h_l
    invalid = (h_l < mcw) | (h_r < mcw)
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = g_l * g_l
        gains /= h_l + lam
        g_r *= g_r
        h_r += lam
        g_r /= h_r
        gains += g_r
        gains -= s_parent
        gains *= 0.5
        gains -= gamma
    gains[invalid] = -np.inf
    return gains


def _fit_round_tree(x, g, h, is_cat, params: BoostParams, rows0, features):
    """One regression tree on (g, h); returns the tree and per-row leaf ids."""
    lam = params.reg_lambda
    gamma = params.gamma
    mcw = params.min_child_weight
    builder = TreeBuilder(track_class_counts=False)
    leaf_of_row = np.zeros(x.shape[0], dtype=np.int64)

    stack = [(rows0, 0, -1, "left")]
    while stack:
        rows, depth, parent, side = stack.pop()
        gn = g[rows]
        hn = h[rows]
        gs = float(gn.sum())
        hs = float(hn.sum())
        node = builder.add_node(len(rows), leaf_weight(gs, hs, lam))
        if parent >= 0:
            if side == "left":
                builder.left[parent] = node
            else:
                builder.right[parent] = node

        if depth >= params.max_depth or rows.size < 2:
            leaf_of_row[rows] = node
            continue
        s_parent = gs * gs / (hs + lam)
        score = partial(_newton_gains, lam=lam, gamma=gamma, mcw=mcw, s_parent=s_parent)
        best = best_split(x, rows, features, is_cat, gn, hn, score)
        if best is None:
            leaf_of_row[rows] = node
            continue
        gain, f, thr, cat = best
        builder.set_split(node, f, thr, cat, gain)
        col = x[rows, f]
        go_left = (col == thr) if cat else (col <= thr)
        stack.append((rows[~go_left], depth + 1, node, "right"))
        stack.append((rows[go_left], depth + 1, node, "left"))
    return builder.build(), leaf_of_row


def fit_boosted_matrix(
    x,
    y,
    kinds,
    names,
    params: BoostParams | None = None,
    seed: int = 0,
    objective: str = OBJECTIVE_LOGISTIC,
) -> BoostedModel:
    params = params or BoostParams()
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.shape[0]
    if n == 0:
        raise ValidationError("fit requires rows")
    if params.n_rounds < 1:
        raise ValidationError("n_rounds must be >= 1")
    if not 0.0 < params.row_subsample <= 1.0 or not 0.0 < params.col_subsample <= 1.0:
        raise ValidationError("subsample fractions must be in (0, 1]")

    if objective == OBJECTIVE_LOGISTIC:
        prevalence = float(y.mean())
        if prevalence <= 0.0 or prevalence >= 1.0:
            raise ValidationError("labels contain a single class; log-odds undefined")
        base = math.log(prevalence / (1.0 - prevalence))
    elif objective == OBJECTIVE_SQUARED:
        base = float(y.mean())
    else:
        raise ValidationError(f"unknown objective {objective!r}")

    n_features = x.shape[1]
    is_cat = split.categorical_mask(kinds)
    margins = np.full(n, base, dtype=np.float64)
    trees: list[Tree] = []
    subsampling = params.row_subsample < 1.0 or params.col_subsample < 1.0
    for r in range(params.n_rounds):
        if objective == OBJECTIVE_LOGISTIC:
            p = sigmoid(margins)
            g = p - y
            h = p * (1.0 - p)
        else:
            g = margins - y
            h = np.ones(n, dtype=np.float64)
        rows = np.arange(n)
        features = np.arange(n_features)
        if subsampling:
            rng = make_rng(seed, "round", r)
            if params.row_subsample < 1.0:
                m = max(1, int(round(params.row_subsample * n)))
                rows = np.sort(rng.choice(n, size=m, replace=False))
            if params.col_subsample < 1.0:
                m = max(1, int(round(params.col_subsample * n_features)))
                features = np.sort(rng.choice(n_features, size=m, replace=False))
        tree, leaf_of_row = _fit_round_tree(x, g, h, is_cat, params, rows, features)
        trees.append(tree)
        if rows.size == n:
            margins += params.eta * tree.value[leaf_of_row]
        else:
            # subsampled fit: the round's tree still updates every row
            margins += params.eta * predict_value(tree, x)
    return BoostedModel(
        trees=trees,
        base_score=base,
        params=params,
        feature_names=list(names),
        feature_kinds=list(kinds),
        objective=objective,
        seed=seed,
    )
