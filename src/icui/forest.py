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

import itertools
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import split
from .data import Dataset, design_matrix
from .errors import ValidationError
from .rng import make_rng
from .trees import LEAF, Tree, _check_matrix, goes_left, level_order_trees, predict_value


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


def normalized_profile(names, raw: np.ndarray) -> ImportanceProfile:
    """raw divided by its total when the total is positive, else raw left unnormalized."""
    total = float(raw.sum())
    if total > 0.0:
        return ImportanceProfile(names=list(names), scores=raw / total, normalized=True)
    return ImportanceProfile(names=list(names), scores=raw, normalized=False)


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
    if lo[0] + lo[1] <= 0 or hi[0] + hi[1] <= 0:
        raise ValidationError("split children must be non-empty")
    for counts in (p, lo, hi):
        gini(counts)  # validates each count vector
    return _split_gain(lo[0], lo[1], hi[0], hi[1])


def _gini2(c0: float, c1: float) -> float:
    """`gini` of the counts (c0, c1), unchecked."""
    total = c0 + c1
    p0 = c0 / total
    p1 = c1 / total
    return 1.0 - (p0 * p0 + p1 * p1)


def _split_gain(l0: float, l1: float, r0: float, r1: float) -> float:
    """`impurity_decrease` of the children (l0, l1) and (r0, r1), unchecked.

    The parent's counts are taken as the children's sums.
    """
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
    `_split_gain`'s arithmetic runs in place on the flat candidate arrays,
    each operation on the same operands in the same order.  Written as plain
    expressions it raises a fit's peak RSS by about 0.9 MB at 1600 x 66 (300
    trees) and 4.5 MB at 16,000 x 66 (50 trees, depth 16).  The largest step
    sets that peak: at 16,000 rows it is one root, scanned alone, since a
    root's cells exceed `_STEP_CELLS`.
    """
    n_r = n - n_l
    p_r = pos - p_l
    invalid = (n_l < msl) | (n_r < msl)
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = n_l - p_l
        gains /= n_l
        gains *= gains
        sq = p_l / n_l
        sq *= sq
        gains += sq
        np.subtract(1.0, gains, out=gains)  # the left child's impurity
        np.divide(n_l, n, out=sq)
        np.multiply(sq, gains, out=gains)
        np.divide(p_r, n_r, out=sq)
        sq *= sq
        np.subtract(n_r, p_r, out=p_r)
        p_r /= n_r
        p_r *= p_r
        p_r += sq
        np.subtract(1.0, p_r, out=p_r)  # the right child's impurity
        n_r /= n
        n_r *= p_r
        gains += n_r
        np.subtract(i_parent, gains, out=gains)
    gains[invalid] = -np.inf
    return gains


# A forest's trees grow in consecutive batches.  A batch stacks about 30
# bytes of per-tree statistics per tree and row, so it holds at most
# _BATCH_ROWS rows all told (trees x rows), but never fewer than eight trees:
# a depth of one or two trees pays the scanner's fixed work for few nodes,
# and past 4096 rows eight trees' statistics (4 MB at 16,000 rows) stay
# below the fit's own x and rank table (13 MB at 16,000 x 66).  Each step
# scores consecutive splittable nodes of one depth up to _STEP_CELLS cells
# (node rows x sorted numeric lines), which bounds the scanner's arrays; a
# node bigger than that fills a step alone.
_BATCH_ROWS = 1 << 15
_STEP_CELLS = 1 << 14


def _grow_batch(x, y, is_cat, rank, params: ForestParams, mtry, rngs, weights) -> list[Tree]:
    """One CART tree per rng of `rngs` and row of `weights`, all grown together one depth at a time.

    `weights` are per-row counts (bootstrap duplicates).  Tree b's row r has
    id b * n + r, so the trees' statistics are stacked while x is shared.  A
    depth lists the nodes of every tree breadth-first: children in their
    parents' order, a left child before its right sibling.  Each splittable
    node draws its `mtry` features from its tree's stream in that order, and
    `split.scan` scores consecutive splittable nodes as segments of one
    block, in steps of at most `_STEP_CELLS` cells.  A node's weight and
    positive weight are integer counts, so a child's are its parent's less
    its sibling's, exactly, and whether it is splittable is known when its
    parent splits.  Only splittable nodes keep their rows, in one buffer that
    each depth's children overwrite in place.
    """
    n, n_features = x.shape
    msl = float(params.min_samples_leaf)
    score = partial(_gini_gains, msl=msl)
    num = np.flatnonzero(~is_cat)
    cat = np.flatnonzero(is_cat)
    row = np.tile(np.arange(n, dtype=np.int32), len(rngs))  # id -> row of x; int32 like `rank`
    wy = weights * y

    def splittable(nw, pos, depth):
        ok = (pos != 0.0) & (pos != nw) & ~(nw < 2 * msl)
        return ok & (depth < params.max_depth) if params.max_depth is not None else ok

    # a depth's nodes: tree, parent record, is left, weight, positive weight, splittable
    tree, parent, is_left = np.arange(len(rngs)), np.full(len(rngs), LEAF), np.zeros(len(rngs), dtype=bool)
    nw, pos = weights.sum(axis=1), wy.sum(axis=1)
    ok = splittable(nw, pos, 0)
    # the splittable nodes' rows, node by node, each node's ascending
    line, sizes = np.flatnonzero(weights), np.count_nonzero(weights, axis=1)
    line, sizes = line[ok.repeat(sizes)], sizes[ok]
    w, wy = weights.ravel(), wy.ravel()
    width = max(1, min(mtry, num.size))  # sorted lines per node row, at most
    levels, first = [], 0  # first: the depth's first record id
    for depth in itertools.count():
        level = {
            "tree": tree, "parent": parent, "is_left": is_left, "n_samples": nw, "value": pos / nw,
            "class_counts": np.stack((nw - pos, pos), axis=1), "feature": np.full(tree.size, LEAF),
            "threshold": np.zeros(tree.size), "categorical": np.zeros(tree.size, dtype=bool), "gain": np.zeros(tree.size),
        }
        levels.append(level)
        if not ok.any():
            break
        seg = np.flatnonzero(ok)
        nn, pp, starts = nw[seg], pos[seg], np.cumsum(sizes) - sizes
        i_parent = _gini2(nn - pp, pp)
        feats = np.sort([rngs[b].choice(n_features, size=mtry, replace=False) for b in tree[seg].tolist()], axis=1)
        drawn = np.zeros((n_features, seg.size), dtype=bool)
        drawn[feats.T, np.arange(seg.size)] = True
        # each node's drawn numeric features, ascending, padded with a
        # feature whose gains the drawn mask discards
        n_drawn = (~is_cat[feats]).sum(axis=1)
        ranked = np.sort(np.where(is_cat[feats], n_features, feats), axis=1).T
        ranked[ranked == n_features] = num[0] if num.size else 0
        f, thr, gain = np.zeros(seg.size, dtype=np.int64), np.zeros(seg.size), np.zeros(seg.size)
        n_l, p_l, rows_l = np.zeros(seg.size), np.zeros(seg.size), np.zeros(seg.size, dtype=np.int64)
        split_ok, kids = np.zeros(seg.size, dtype=bool), np.zeros((seg.size, 2), dtype=bool)
        out = 0  # the children's rows written so far
        for a, b in split.spans((sizes * width).tolist(), _STEP_CELLS):
            lines = ranked[: n_drawn[a:b].max(), a:b]
            seg_cat = cat[drawn[cat, a:b].any(axis=1)]
            part, sz, st = line[starts[a] : starts[b - 1] + sizes[b - 1]], sizes[a:b], starts[a:b] - starts[a]
            block = _step_block(part, sz, lines, rank, row)
            gains, thresholds = split.scan(x, block, st, lines, seg_cat, w, wy, i_parent[a:b], score, row=row)
            gains[~drawn[:, a:b]] = -np.inf
            f[a:b], gain[a:b] = split.winners(gains)
            thr[a:b] = thresholds[f[a:b], np.arange(b - a)]
            fr = f[a:b].repeat(sz)
            left = goes_left(x[row[part], fr], thr[a:b].repeat(sz), is_cat[fr])
            p_l[a:b] = np.add.reduceat(np.where(left, wy[part], 0.0), st)
            n_l[a:b] = np.add.reduceat(np.where(left, w[part], 0.0), st)
            rows_l[a:b] = np.add.reduceat(left, st, dtype=np.int64)
            n_r, p_r = nn[a:b] - n_l[a:b], pp[a:b] - p_l[a:b]
            split_ok[a:b] = gain[a:b] > 0.0
            kids[a:b, 0] = split_ok[a:b] & splittable(n_l[a:b], p_l[a:b], depth + 1)
            kids[a:b, 1] = split_ok[a:b] & splittable(n_r, p_r, depth + 1)
            # the splittable children's rows, in their parents' order, left before
            # right, over the rows already scanned
            keep = np.where(left, kids[a:b, 0].repeat(sz), kids[a:b, 1].repeat(sz))
            side = 2 * np.arange(b - a).repeat(sz)[keep] + ~left[keep]
            kept = part[keep][np.argsort(side, kind="stable")]
            line[out : out + kept.size] = kept
            out += kept.size
        at = seg[split_ok]
        level["feature"][at] = f[split_ok]
        level["threshold"][at] = thr[split_ok]
        level["gain"][at] = gain[split_ok]
        level["categorical"][at] = is_cat[f[split_ok]]
        line = line[:out]
        ok = kids[split_ok].ravel()
        sizes = np.stack((rows_l, sizes - rows_l), axis=1)[split_ok].ravel()[ok]
        nw = np.stack((n_l, nn - n_l), axis=1)[split_ok].ravel()
        pos = np.stack((p_l, pp - p_l), axis=1)[split_ok].ravel()
        tree = tree[at].repeat(2)
        parent = (first + at).repeat(2)
        is_left = np.tile([True, False], at.size)
        first += level["tree"].size
    return level_order_trees(levels)


def _step_block(line, sizes, lines, rank, row):
    """The block of one step: `line`, then each segment's rows sorted by each of `lines`.

    Ranks are distinct, so ordering a segment's rows by rank gives the order
    a stable sort of their values gives.
    """
    feat = lines.repeat(sizes, axis=1) if lines.ndim == 2 else lines[:, None]
    key = np.arange(sizes.size).repeat(sizes) * rank.shape[1] + rank[feat, row[line]]
    return np.concatenate((line[None], line[key.argsort(axis=1)]))


def fit_forest(ds: Dataset, params: ForestParams | None = None, seed: int = 0) -> ForestModel:
    """Fit a bootstrap ensemble; tree t draws from the stream (seed, "tree", t).

    Each numeric column is sorted once, stably; a row's rank in that order
    sorts every node of every tree.  Trees are grown in consecutive batches
    of at most `_BATCH_ROWS` rows or else eight trees, a batch one depth at a
    time.  Tree t draws its bootstrap sample, then one `mtry` subset per
    splittable node in breadth-first order, so its arrays do not depend on
    the batching.
    """
    params = params or ForestParams()
    if ds.labels is None:
        raise ValidationError("fit_forest requires labels")
    if ds.n_rows == 0:
        raise ValidationError("fit_forest requires rows")
    x, kinds, names = design_matrix(ds)
    y = ds.labels.astype(np.float64)
    n, n_features = x.shape
    is_cat = split.categorical_mask(kinds)
    mtry = params.mtry if params.mtry is not None else math.ceil(math.sqrt(n_features))
    mtry = max(1, min(mtry, n_features))
    num = np.flatnonzero(~is_cat)
    rank = np.zeros((n_features, n), dtype=np.int32)
    for j in num.tolist():  # column by column: a whole-table argsort would double x
        rank[j, np.argsort(x[:, j], kind="stable")] = np.arange(n)
    per_batch = max(8, _BATCH_ROWS // n)
    trees = []
    for first in range(0, params.n_trees, per_batch):
        rngs = [make_rng(seed, "tree", t) for t in range(first, min(first + per_batch, params.n_trees))]
        weights = np.ones((len(rngs), n))
        if params.bootstrap:
            for rng, counts in zip(rngs, weights):
                counts[:] = np.bincount(rng.integers(0, n, size=n), minlength=n)
        trees += _grow_batch(x, y, is_cat, rank, params, mtry, rngs, weights)
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


def forest_importance(model: ForestModel) -> ImportanceProfile:
    """`_mean_importance` normalized to sum to 1 (left raw when every feature scores 0)."""
    return normalized_profile(model.feature_names, _mean_importance(model))


def _mean_importance(model: ForestModel) -> np.ndarray:
    """Per-feature mean of (N_n / N) * delta_i_n over trees."""
    n_features = len(model.feature_names)
    acc = np.zeros(n_features, dtype=np.float64)
    for tree in model.trees:
        internal = tree.feature != LEAF
        contrib = (tree.n_samples[internal] / model.bootstrap_n) * tree.gain[internal]
        per_tree = np.zeros(n_features, dtype=np.float64)
        np.add.at(per_tree, tree.feature[internal], contrib)
        acc += per_tree
    return acc / len(model.trees)
