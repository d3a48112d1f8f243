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
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import split
from .data import Dataset, design_matrix
from .errors import ValidationError
from .rng import make_rng
from .trees import LEAF, Tree, _check_matrix, predict_value, preorder_trees


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
    trees) and 4.5 MB at 16,000 x 66 (50 trees, depth 16), where each root
    fills a step alone.
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
# a step of one or two trees pays the scanner's fixed work for every node,
# and past 4096 rows eight trees' statistics (4 MB at 16,000 rows) stay
# below the fit's own x and rank table (13 MB at 16,000 x 66).  Each step
# scores nodes of the batch, taken in turn, up to _STEP_CELLS cells (node
# rows x sorted numeric lines), which bounds the scanner's arrays; a node
# bigger than that fills a step alone.
_BATCH_ROWS = 1 << 15
_STEP_CELLS = 1 << 14


def _grow_batch(x, y, is_cat, rank, params: ForestParams, mtry, rngs, weights) -> list[Tree]:
    """One CART tree per rng of `rngs` and row of `weights`, all grown together.

    `weights` are per-row counts (bootstrap duplicates).  Every tree grows
    depth-first from its own stack.  Each step takes the trees whose turn it
    is, in rotation: from each it pops the leading leaves, which are only
    recorded, together with its next splittable node, until that node would
    overflow `_STEP_CELLS`.  One `split.scan` scores the step's splittable
    nodes as segments of one block, so a step scans at most one node of a
    tree.  A node's weight and positive weight are known when it is pushed
    (integer counts: a child's are its parent's less its sibling's, exact),
    and with them whether it is a leaf.  Tree b's row r has id b * n + r, so
    the trees' statistics are stacked while x is shared.  A tree's nodes are
    numbered and its `mtry` draws taken in its own preorder, as if it were
    grown alone.
    """
    n, n_features = x.shape
    msl = float(params.min_samples_leaf)
    score = partial(_gini_gains, msl=msl)
    num = np.flatnonzero(~is_cat)
    cat = np.flatnonzero(is_cat)
    row = np.tile(np.arange(n), len(rngs))
    wy = weights * y

    def splittable(nw, pos, depth):
        ok = (pos != 0.0) & (pos != nw) & ~(nw < 2 * msl)
        return ok & (depth < params.max_depth) if params.max_depth is not None else ok

    # a stack entry: (rows, weight, positive weight, depth, parent id, is left, splittable)
    root_n, root_pos = weights.sum(axis=1), wy.sum(axis=1)
    root_ok = splittable(root_n, root_pos, 0)
    w, wy = weights.ravel(), wy.ravel()
    stacks = [
        [(np.flatnonzero(weights[b]) + b * n, root_n[b], root_pos[b], 0, LEAF, False, root_ok[b])]
        for b in range(len(rngs))
    ]
    n_nodes = [0] * len(rngs)
    steps = []
    width = max(1, min(mtry, num.size))  # sorted lines per node row, at most
    queue = list(range(len(rngs)))  # trees with pending nodes, in turn
    while queue:
        popped, trees, ids, scanned = [], [], [], []
        take = cells = 0
        for b in queue:
            stack = stacks[b]
            while stack and not stack[-1][-1]:
                popped.append(stack.pop())
                trees.append(b)
                ids.append(n_nodes[b])
                n_nodes[b] += 1
            if stack:
                cells += stack[-1][0].size * width
                if scanned and cells > _STEP_CELLS:
                    break
                scanned.append(len(popped))
                popped.append(stack.pop())
                trees.append(b)
                ids.append(n_nodes[b])
                n_nodes[b] += 1
            take += 1
        active, queue = queue[:take], queue[take:]
        rows, nw, pos, depth, parent, is_left, _ = zip(*popped)
        nw, pos = np.array(nw), np.array(pos)
        node = {
            "tree": np.array(trees), "id": np.array(ids), "parent": np.array(parent),
            "is_left": np.array(is_left), "n": nw, "pos": pos, "feature": np.full(len(popped), LEAF),
            "threshold": np.zeros(len(popped)), "gain": np.zeros(len(popped)),
        }
        steps.append(node)
        if scanned:
            seg = np.array(scanned)
            tree = node["tree"][seg]
            sizes = np.array([rows[i].size for i in scanned])
            line = np.concatenate([rows[i] for i in scanned])
            starts = np.cumsum(sizes) - sizes
            lines, drawn = num, None
            if mtry < n_features:
                feats = np.sort([rngs[b].choice(n_features, size=mtry, replace=False) for b in tree], axis=1)
                drawn = np.zeros((n_features, seg.size), dtype=bool)
                drawn[feats.T, np.arange(seg.size)] = True
                # each segment's drawn numeric features, ascending, padded
                # with a feature whose gains the drawn mask discards
                ranked = np.sort(np.where(is_cat[feats], n_features, feats), axis=1)
                ranked = ranked[:, : int((~is_cat[feats]).sum(axis=1).max())].T
                lines = np.where(ranked == n_features, num[0] if num.size else 0, ranked)
            block = _step_block(line, sizes, lines, rank, row)
            nn, pp = nw[seg], pos[seg]
            seg_cat = cat if drawn is None else cat[drawn[cat].any(axis=1)]
            gains, thresholds = split.scan(
                x, block, starts, lines, seg_cat, w, wy, _gini2(nn - pp, pp), score, row=row
            )
            if drawn is not None:
                gains[~drawn] = -np.inf
            f, best = split.winners(gains)
            thr = thresholds[f, np.arange(seg.size)]
            fr = f.repeat(sizes)
            vals = x[row[line], fr]
            go_left = np.where(is_cat[fr], vals == thr.repeat(sizes), vals <= thr.repeat(sizes))
            p_l = np.add.reduceat(np.where(go_left, wy[line], 0.0), starts)
            n_l = np.add.reduceat(np.where(go_left, w[line], 0.0), starts)
            n_r, p_r = nn - n_l, pp - p_l
            # Recompute the stored gain in `impurity_decrease`'s arithmetic; the
            # scanner mirrors it, so the two agree bit-for-bit on integer counts.
            with np.errstate(divide="ignore", invalid="ignore"):
                gain = _split_gain(n_l - p_l, p_l, n_r - p_r, p_r)
            split_ok = (best > 0.0) & (gain > 0.0)
            at = seg[split_ok]
            node["feature"][at] = f[split_ok]
            node["threshold"][at] = thr[split_ok]
            node["gain"][at] = gain[split_ok]
            child = np.array(depth)[seg] + 1
            ok_l = splittable(n_l, p_l, child).tolist()
            ok_r = splittable(n_r, p_r, child).tolist()
            ends = starts + sizes
            for i in np.flatnonzero(split_ok).tolist():
                b, d, pid = trees[scanned[i]], depth[scanned[i]] + 1, ids[scanned[i]]
                part = line[starts[i] : ends[i]]
                left = go_left[starts[i] : ends[i]]
                # right pushed first so the left child is built (and numbered) first
                stacks[b].append((part[~left], n_r[i], p_r[i], d, pid, False, ok_r[i]))
                stacks[b].append((part[left], n_l[i], p_l[i], d, pid, True, ok_l[i]))
        queue += [b for b in active if stacks[b]]
    rec = {k: np.concatenate([step[k] for step in steps]) for k in steps[0]}
    nw, pos, feature = rec["n"], rec["pos"], rec["feature"]
    fields = {
        "feature": feature,
        "threshold": rec["threshold"],
        "categorical": (feature != LEAF) & is_cat[feature],
        "n_samples": nw,
        "value": pos / nw,
        "gain": rec["gain"],
        "class_counts": np.stack((nw - pos, pos), axis=1),
    }
    return preorder_trees(rec["tree"], rec["id"], rec["parent"], rec["is_left"], n_nodes, fields)


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
    sorts every node of every tree.  Trees are grown in lockstep, in
    consecutive batches of at most `_BATCH_ROWS` rows or else eight trees.
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
    return normalized_profile(model.feature_names, raw)

