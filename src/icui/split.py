"""Exact greedy split search shared by the forest and boosting.

A node's candidate features are scored together.  The numeric ones are
gathered into one (rows x features) block, stably sorted per column, and two
per-row statistics are accumulated down every column at once: (w, w*y) for
the forest's Gini decrease, (g, h) for boosting's Newton gain.  Every
boundary between consecutive distinct sorted values is a candidate, with its
threshold at the midpoint.  This is the exact greedy algorithm of XGBoost
(Chen & Guestrin, KDD 2016) run over all features of a node in one pass.
Categorical features are split one-vs-rest on a single code.

A model supplies one score function, score(l1, l2, t1, t2): the gains of
splits whose left child sums the statistics to (l1, l2) in a node whose
totals are (t1, t2), set to -inf where a child fails the model's size test.

Node rows arrive in ascending order, so the stable per-column sort orders
tied values as a sort of that one column would, and each column's running
sums are added in the same order: gains and thresholds do not depend on
which other features are scanned alongside.
"""

from __future__ import annotations

import numpy as np

from .data import CATEGORICAL


def categorical_mask(kinds) -> np.ndarray:
    """Boolean mask of the categorical columns among feature `kinds`."""
    return np.array([k == CATEGORICAL for k in kinds], dtype=bool)


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
    thresholds = (vs[best, cols] + vs[best + 1, cols]) / 2.0
    return gains[best, cols], thresholds


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
