"""Exact greedy split search shared by the forest and boosting.

The search scores a *block*: nodes of one tree depth, of one or several
trees, laid side by side as segments of an int array of row ids, never
padded.  Line 0 of the block holds each segment's rows in ascending order;
line 1 + j holds the same rows stably sorted by numeric feature `num[j]`,
one feature shared by every segment, or `num[j, s]` in segment s when each
node draws its own features.  Two per-row statistics,
indexed by row id, are accumulated down every sorted line of every segment:
(w, w*y) for the forest's Gini decrease, (g, h) for boosting's Newton gain.
Every boundary between consecutive distinct sorted values is a candidate,
with its threshold at the midpoint, or at the lower value where the
midpoint rounds onto the upper one or overflows (see `midpoints`).  This
is the exact greedy algorithm of XGBoost (Chen & Guestrin, KDD 2016) over
presorted column blocks.
Categorical features are split one-vs-rest on a single code.

A model supplies one score function, score(l1, l2, t1, t2, parent): the gains
of splits whose left child sums the statistics to (l1, l2) in a node whose
totals are (t1, t2) and whose own term is `parent`, set to -inf where a child
fails the model's size test.  All candidates of a block, numeric boundaries
and categorical codes alike, go through one score call.

Every float a node's search adds keeps the order a search of that node alone
would use, so the gains do not depend on which other nodes share the block:

- segment rows arrive in ascending order and every sort is stable, so each
  sorted line orders tied values by row, and each segment's running sums
  are accumulated on their own, in that order;
- a categorical code's sums add the node's rows in ascending order, and a
  node's totals sum its own bins, as many as its greatest code + 1 (numpy's
  pairwise sum associates 9 or more terms by their count);
- each segment's best candidate is the first NaN, else the first maximum,
  as np.argmax would pick.
"""

from __future__ import annotations

import numpy as np

from .data import CATEGORICAL


def categorical_mask(kinds) -> np.ndarray:
    """Boolean mask of the categorical columns among feature `kinds`."""
    return np.array([k == CATEGORICAL for k in kinds], dtype=bool)


def _first_max(gains, starts, sizes):
    """np.argmax of each group gains[starts[i]:starts[i] + sizes[i]], as flat indices."""
    top = np.maximum.reduceat(gains, starts)  # NaN when the group holds one
    hit = gains == top.repeat(sizes)
    if np.isnan(top).any():
        hit |= np.isnan(gains)
    first = hit.nonzero()[0]
    return first[first.searchsorted(starts)]


def _code_sums(x, rows, sizes, cat, s1, s2):
    """Per (categorical feature, segment): the bin sums of (s1, s2), their totals, and present codes.

    Returns (sums, totals, present) shaped (2, groups, bins), (2, groups)
    and (groups, bins); group g is feature g // segments, segment g % segments.
    """
    codes = x[rows, cat[:, None]].astype(np.int64)
    n_bins = int(codes.max()) + 1
    n_groups = cat.size * sizes.size
    key = (codes + (np.arange(sizes.size) * n_bins).repeat(sizes)).ravel()
    if cat.size > 1:
        key += (np.arange(cat.size) * (sizes.size * n_bins)).repeat(rows.size)
        s1 = s1[None].repeat(cat.size, axis=0).ravel()
        s2 = s2[None].repeat(cat.size, axis=0).ravel()
    size = n_groups * n_bins
    sums = np.concatenate((np.bincount(key, s1, size), np.bincount(key, s2, size))).reshape(2, n_groups, n_bins)
    present = np.bincount(key, minlength=size).reshape(n_groups, n_bins) > 0
    own = n_bins - present[:, ::-1].argmax(axis=1)
    totals = np.empty((2, n_groups))
    for m in set(own.tolist()):
        sel = own == m
        totals[:, sel] = sums[:, :, :m].sum(axis=2)[:, sel]
    return sums, totals, present


def scan(x, block, starts, num, cat, s1, s2, parent, score, row=None):
    """Every feature's best split in every segment of `block`.

    `starts` are the segments' ascending offsets (the first is 0) and
    `parent` holds one term per segment.  `num` names the numeric feature of
    each sorted line, either for all segments (shape lines) or per segment
    (lines x segments); a segment may repeat a feature in several lines.
    `row` maps the block's row ids to rows of x (ids are rows when None).
    Returns (gains, thresholds), each (columns of x by segments); a feature
    outside num and cat, or without a positive gain, has gain -inf.
    """
    width = block.shape[1]
    n_seg = starts.size
    ends = np.concatenate((starts[1:], [width]))
    last = ends - 1
    sizes = ends - starts
    lines = num if num.ndim == 2 else num[:, None]
    n_lines = lines.shape[0]
    n_num = n_lines * width
    n_cat = 0
    if cat.size:
        # every (feature, segment, code) bin is a candidate; absent codes score -inf
        x_rows = block[0] if row is None else row[block[0]]
        sums, totals, present = _code_sums(x, x_rows, sizes, cat, s1[block[0]], s2[block[0]])
        n_groups, n_bins = present.shape
        n_cat = present.size

    # the score's operands (l1, l2, t1, t2, parent): numeric boundaries, then codes
    ops = np.empty((5, n_num + n_cat))
    numeric = ops[:, :n_num].reshape(5, n_lines, width)  # a view
    np.take(s1, block[1:], out=numeric[0], mode="clip")
    np.take(s2, block[1:], out=numeric[1], mode="clip")
    for a, b in zip(starts.tolist(), ends.tolist()):
        numeric[:2, :, a:b].cumsum(axis=2, out=numeric[:2, :, a:b])
    numeric[2:4] = numeric[:2, :, last].repeat(sizes, axis=2)  # each segment's totals
    numeric[4] = parent.repeat(sizes)
    group_starts = (np.arange(0, n_num, width)[:, None] + starts).ravel()
    group_sizes = sizes[None].repeat(n_lines, axis=0).ravel()
    if n_cat:
        ops[:2, n_num:] = sums.reshape(2, n_cat)
        ops[2:4, n_num:] = totals.repeat(n_bins, axis=1)
        ops[4, n_num:] = parent[np.arange(n_groups) % n_seg].repeat(n_bins)
        group_starts = np.concatenate((group_starts, np.arange(n_num, n_num + n_cat, n_bins)))
        group_sizes = np.concatenate((group_sizes, np.full(n_groups, n_bins)))

    cand = score(*ops)
    num_gains = cand[:n_num].reshape(n_lines, width)
    num_gains[:, last] = -np.inf  # a segment's last row is no boundary
    x_rows = block[1:] if row is None else row[block[1:]]
    vs = x[x_rows, lines.repeat(sizes, axis=1) if lines.shape[1] > 1 else lines]
    num_gains[:, :-1][vs[:, :-1] == vs[:, 1:]] = -np.inf
    if n_cat:
        absent = ~present
        absent[present.sum(axis=1) < 2] = True  # a node with one code has no split
        cand[n_num:][absent.ravel()] = -np.inf
    best = _first_max(cand, group_starts, group_sizes)
    top = cand[best]
    top[~(top > 0.0)] = -np.inf

    gains = np.empty((x.shape[1], n_seg))
    gains.fill(-np.inf)
    thresholds = np.zeros((x.shape[1], n_seg))
    k = n_lines * n_seg
    nb = best[:k]
    vflat = vs.ravel()
    segs = np.arange(n_seg)
    gains[lines, segs] = top[:k].reshape(n_lines, n_seg)
    thresholds[lines, segs] = midpoints(vflat[nb], vflat.take(nb + 1, mode="clip")).reshape(n_lines, n_seg)
    if n_cat:
        gains[cat] = top[k:].reshape(cat.size, n_seg)
        thresholds[cat] = ((best[k:] - n_num) % n_bins).reshape(cat.size, n_seg)
    return gains, thresholds


def midpoints(lo, hi):
    """Thresholds between the sorted values lo < hi: the midpoint, or lo where it is not in [lo, hi).

    For adjacent doubles the midpoint can round onto hi, and near the
    largest doubles lo + hi overflows to +-inf; either would send the rows
    at hi to the same side as those at lo.  scikit-learn's splitter falls
    back to lo the same way.
    """
    with np.errstate(over="ignore"):
        mid = (lo + hi) / 2.0
    return np.where((lo <= mid) & (mid < hi), mid, lo)


def spans(cells, cap):
    """Consecutive (first, stop) spans of `cells` summing to at most `cap`, an entry over it alone."""
    out, a, total = [], 0, 0
    for i, c in enumerate(cells):
        if i > a and total + c > cap:
            out.append((a, i))
            a, total = i, 0
        total += c
    return out + [(a, len(cells))] if cells else out


def winners(gains):
    """Per segment: the first feature with the strictly greatest gain, and that gain."""
    f = gains.argmax(axis=0)
    return f, gains[f, np.arange(gains.shape[1])]
