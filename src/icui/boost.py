"""Second-order (Newton) gradient-boosted trees with logistic loss.

Per boosting round, with margin m and target y in {0,1}:

    p = sigmoid(m),  gradient g = p - y,  hessian h = p * (1 - p)

A tree is grown greedily on (g, h); a split's score is

    gain = 1/2 * [G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda) - (G_L+G_R)^2/(H_L+H_R+lambda)] - gamma

and each leaf contributes weight w = -G / (H + lambda), scaled by the learning
rate eta when added to the margin.  The starting margin is the log-odds of the
training prevalence.  A squared-loss variant (g = pred - y, h = 1) backs the
model-based imputers.
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
from .trees import LEAF, Tree, _check_matrix, goes_left, level_order_trees, predict_value

OBJECTIVE_LOGISTIC = "logistic"
OBJECTIVE_SQUARED = "squared"


@dataclass
class BoostParams:
    n_rounds: int = 200
    eta: float = 0.1
    max_depth: int = 4
    reg_lambda: float = 1.0
    gamma: float = 0.0
    min_child_weight: float = 1.0
    row_subsample: float = 1.0
    col_subsample: float = 1.0

    def __post_init__(self):
        for name, ok, rule in (
            ("n_rounds", self.n_rounds >= 1, ">= 1"),
            ("max_depth", self.max_depth >= 0, ">= 0"),
            ("eta", self.eta > 0, "> 0"),
            ("reg_lambda", self.reg_lambda >= 0, ">= 0"),
            ("gamma", self.gamma >= 0, ">= 0"),
            ("min_child_weight", self.min_child_weight >= 0, ">= 0"),
            ("row_subsample", 0 < self.row_subsample <= 1, "in (0, 1]"),
            ("col_subsample", 0 < self.col_subsample <= 1, "in (0, 1]"),
        ):
            if not ok:
                raise ValidationError(f"{name} must be {rule}, got {getattr(self, name)!r}")


@dataclass
class BoostedModel:
    trees: list[Tree]
    base_score: float
    params: BoostParams
    feature_names: list[str]
    feature_kinds: list[str]
    objective: str
    seed: int


def sigmoid(m):
    m = np.asarray(m, dtype=np.float64)
    out = np.empty_like(m)
    pos = m >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-m[pos]))
    em = np.exp(m[~pos])
    out[~pos] = em / (1.0 + em)
    return out


def _newton_gains(g_l, h_l, g_t, h_t, s_parent, *, lam, gamma, mcw):
    """split_gain of splits whose left child sums to (g_l, h_l) in a node summing to (g_t, h_t).

    `split_gain` is the scalar form in tests/boost_oracle.py.  s_parent is the
    node's G^2/(H+lambda).  The operands are flat candidate arrays, so
    split_gain's arithmetic runs in place, in the same order: every temporary
    would add to a fit's peak memory.
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


def _check_x(x, is_cat, names, where):
    """x as a float64 matrix of finite values with integer codes in its categorical columns."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValidationError(f"{where}x must be a 2-D matrix, got {x.ndim} dimension(s)")
    if x.shape[1] != len(names):
        raise ValidationError(f"{where}x has {x.shape[1]} columns for {len(names)} feature names and kinds")
    if x.shape[0] == 0:
        raise ValidationError(f"{where}fit requires rows")
    if x.shape[1] == 0:
        raise ValidationError(f"{where}fit requires at least one feature column")
    bad = ~np.isfinite(x).all(axis=0)
    if bad.any():
        raise ValidationError(f"{where}column {names[int(np.argmax(bad))]!r} holds non-finite values")
    codes = x[:, is_cat]
    bad = ~((codes >= 0) & (codes == np.floor(codes))).all(axis=0)
    if bad.any():
        name = names[int(np.flatnonzero(is_cat)[np.argmax(bad)])]
        raise ValidationError(f"{where}categorical column {name!r} holds values that are not codes")
    return x


def _check_y(y, n, objective, where):
    """y as a float64 vector of n targets, and the starting margin it implies."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (n,):
        raise ValidationError(f"{where}y has shape {y.shape}; expected ({n},) to match the rows of x")
    if objective == OBJECTIVE_LOGISTIC:
        if not ((y == 0.0) | (y == 1.0)).all():
            raise ValidationError(f"{where}logistic labels must be 0 or 1")
        prevalence = float(y.mean())
        if prevalence <= 0.0 or prevalence >= 1.0:
            raise ValidationError(f"{where}labels contain a single class; log-odds undefined")
        return y, math.log(prevalence / (1.0 - prevalence))
    if not np.isfinite(y).all():
        raise ValidationError(f"{where}squared-loss target holds non-finite values")
    return y, float(y.mean())


def _grow_round(x, g, h, is_cat, params: BoostParams, block, starts, allowed):
    """One regression tree per job on (g, h), all grown together one depth at a time.

    Segment j of the root `block` holds job j's rows.  Every depth scores
    the nodes of all jobs in one `split.scan`; children inherit each sorted
    line of the block by an order-preserving partition.  Returns the trees,
    with node ids in preorder, and per row id the value of the leaf its row
    reaches (rows outside the block get an arbitrary value).
    """
    lam = params.reg_lambda
    score = partial(_newton_gains, lam=lam, gamma=params.gamma, mcw=params.min_child_weight)
    num = np.flatnonzero(~is_cat)
    cat = np.flatnonzero(is_cat)
    n_jobs = starts.size
    seg_job = np.arange(n_jobs)
    seg_parent = np.full(n_jobs, LEAF)
    seg_left = np.zeros(n_jobs, dtype=bool)
    leaf = np.zeros(g.size, dtype=np.int64)
    levels = []
    n_nodes = 0
    for depth in range(params.max_depth + 1):
        rows = block[0]
        n_seg = starts.size
        ends = np.append(starts[1:], rows.size)
        seg = np.repeat(np.arange(n_seg), ends - starts)
        gr = g[rows]
        hr = h[rows]
        bounds = list(zip(starts.tolist(), ends.tolist()))
        gs = np.array([gr[a:b].sum() for a, b in bounds])
        hs = np.array([hr[a:b].sum() for a, b in bounds])
        denom = hs + lam
        if not (denom > 0).all():
            raise ValidationError("hessian sum plus lambda must be positive")
        ids = n_nodes + np.arange(n_seg)
        n_nodes += n_seg
        feature = np.full(n_seg, LEAF)
        threshold = np.zeros(n_seg)
        gain = np.zeros(n_seg)
        splits = np.zeros(n_seg, dtype=bool)
        if depth < params.max_depth:
            gains, thresholds = split.scan(x, block, starts, num, cat, g, h, gs * gs / denom, score)
            if allowed is not None:
                gains[~allowed[:, seg_job]] = -np.inf
            f, best = split.winners(gains)
            splits = best > 0.0
            feature[splits] = f[splits]
            threshold[splits] = thresholds[f, np.arange(n_seg)][splits]
            gain[splits] = best[splits]
        levels.append({
            "tree": seg_job, "parent": seg_parent, "is_left": seg_left, "n_samples": (ends - starts).astype(np.float64),
            "value": -gs / denom, "feature": feature, "threshold": threshold, "gain": gain,
            "categorical": splits & is_cat[feature],
        })
        go = splits[seg]
        leaf[rows[~go]] = ids[seg[~go]]
        if not splits.any():
            break
        sf = feature[seg]
        vals = x[rows, np.maximum(sf, 0)]
        left = goes_left(vals, threshold[seg], is_cat[sf])
        side = np.zeros(g.size, dtype=np.int8)
        side[rows] = np.where(go, np.where(left, 1, 2), 0)
        lines = side[block]
        block = np.concatenate(
            [block[lines == 1].reshape(block.shape[0], -1), block[lines == 2].reshape(block.shape[0], -1)],
            axis=1,
        )
        sp = np.flatnonzero(splits)
        n_left = np.add.reduceat((go & left).astype(np.int64), starts)[sp]
        sizes = np.concatenate([n_left, (ends - starts)[sp] - n_left])
        starts = np.cumsum(sizes) - sizes
        seg_job = np.concatenate([seg_job[sp], seg_job[sp]])
        seg_parent = np.concatenate([ids[sp], ids[sp]])
        seg_left = np.repeat([True, False], sp.size)
    return level_order_trees(levels), np.concatenate([lv["value"] for lv in levels])[leaf]


# Numeric cells (rows x numeric columns) a batch of jobs may hold.  Jobs are
# fitted in consecutive batches up to this size, so a call's per-depth arrays
# stay a few MB however many jobs it gets; tiny fits still share one batch.
_BATCH_CELLS = 1 << 16


def fit_boosted_many(
    jobs,
    kinds,
    names,
    params: BoostParams | None = None,
    objective: str = OBJECTIVE_LOGISTIC,
) -> list[BoostedModel]:
    """One boosted model per job (x, y, seed); all jobs share kinds, names, params and objective.

    Each distinct x is sorted once, stably, per numeric column.  Every round
    grows the trees of a batch of jobs together, one depth at a time, and each
    model equals the one a fit of its job alone would return: a job's floats
    are added in the same order whatever else is in the batch.  Boosting draws
    no random numbers inside a tree, so growing it level-wise changes nothing.
    """
    params = params or BoostParams()
    if objective not in (OBJECTIVE_LOGISTIC, OBJECTIVE_SQUARED):
        raise ValidationError(f"unknown objective {objective!r}")
    if len(kinds) != len(names):
        raise ValidationError(f"{len(kinds)} feature kinds for {len(names)} feature names")
    jobs = list(jobs)
    is_cat = split.categorical_mask(kinds)
    checked, seen = [], {}
    for j, (x, y, seed) in enumerate(jobs):
        where = f"job {j}: " if len(jobs) > 1 else ""
        if id(x) not in seen:  # one-vs-rest jobs share one x
            seen[id(x)] = _check_x(x, is_cat, names, where)
        xa = seen[id(x)]
        checked.append((xa, *_check_y(y, xa.shape[0], objective, where), seed))

    trees: list[list[Tree]] = []
    width = max(1, int((~is_cat).sum()))
    for a, b in split.spans([y.size * width for _, y, _, _ in checked], _BATCH_CELLS):
        trees += _fit_batch(checked[a:b], is_cat, params, objective)
    return [
        BoostedModel(
            trees=job_trees,
            base_score=base,
            params=params,
            feature_names=list(names),
            feature_kinds=list(kinds),
            objective=objective,
            seed=seed,
        )
        for job_trees, (_, _, base, seed) in zip(trees, checked)
    ]


def _fit_batch(batch, is_cat, params: BoostParams, objective: str) -> list[list[Tree]]:
    """The trees of every job (x, y, base, seed) of one batch, all rounds grown together.

    The jobs' rows are stacked; row ids index the stack.  Each distinct x is
    sorted once, so one-vs-rest jobs sharing an x share its sort.
    """
    num = np.flatnonzero(~is_cat)
    orders = {}
    for xa, _, _, _ in batch:
        if id(xa) not in orders:
            order = np.argsort(xa[:, num], axis=0, kind="stable").T
            orders[id(xa)] = np.concatenate((np.arange(xa.shape[0])[None], order))
    n = np.array([y.size for _, y, _, _ in batch])
    offsets = np.cumsum(n) - n
    x = np.concatenate([xa for xa, _, _, _ in batch])
    block0 = np.concatenate([orders[id(xa)] + o for (xa, _, _, _), o in zip(batch, offsets)], axis=1)
    y = np.concatenate([y for _, y, _, _ in batch])
    margins = np.repeat(np.array([base for _, _, base, _ in batch]), n)
    trees: list[list[Tree]] = [[] for _ in batch]
    n_features = is_cat.size
    for r in range(params.n_rounds):
        if objective == OBJECTIVE_LOGISTIC:
            p = sigmoid(margins)
            g = p - y
            h = p * (1.0 - p)
        else:
            g = margins - y
            h = np.ones(y.size, dtype=np.float64)
        block, starts, allowed = block0, offsets, None
        subsampled = []
        if params.row_subsample < 1.0 or params.col_subsample < 1.0:
            keep = np.ones(y.size, dtype=bool)
            allowed = np.ones((n_features, len(batch)), dtype=bool)
            for j, (_, _, _, seed) in enumerate(batch):
                rng = make_rng(seed, "round", r)
                nj = int(n[j])
                if params.row_subsample < 1.0:
                    m = max(1, int(round(params.row_subsample * nj)))
                    rows = np.sort(rng.choice(nj, size=m, replace=False))
                    if m < nj:
                        subsampled.append(j)
                        keep[offsets[j] : offsets[j] + nj] = False
                        keep[offsets[j] + rows] = True
                if params.col_subsample < 1.0:
                    m = max(1, int(round(params.col_subsample * n_features)))
                    allowed[:, j] = False
                    allowed[rng.choice(n_features, size=m, replace=False), j] = True
            if subsampled:
                block = block0[keep[block0]].reshape(block0.shape[0], -1)
                kept = np.add.reduceat(keep, offsets)
                starts = np.cumsum(kept) - kept
        round_trees, step = _grow_round(x, g, h, is_cat, params, block, starts, allowed)
        for j in subsampled:
            # a subsampled round's tree still updates every row of its job
            step[offsets[j] : offsets[j] + n[j]] = predict_value(round_trees[j], batch[j][0])
        margins += params.eta * step
        for job_trees, tree in zip(trees, round_trees):
            job_trees.append(tree)
    return trees


def fit_boosted_matrix(
    x,
    y,
    kinds,
    names,
    params: BoostParams | None = None,
    seed: int = 0,
    objective: str = OBJECTIVE_LOGISTIC,
) -> BoostedModel:
    """One boosted model on (x, y): `fit_boosted_many` with a single job."""
    return fit_boosted_many([(x, y, seed)], kinds, names, params, objective)[0]


def fit_boosted(ds: Dataset, params: BoostParams | None = None, seed: int = 0) -> BoostedModel:
    """Fit the logistic-loss classifier on a complete, labeled Dataset."""
    if ds.labels is None:
        raise ValidationError("fit_boosted requires labels")
    x, kinds, names = design_matrix(ds)
    return fit_boosted_matrix(x, ds.labels, kinds, names, params, seed, OBJECTIVE_LOGISTIC)


def predict_margin(model: BoostedModel, x) -> np.ndarray:
    """base_score + eta * sum of leaf weights, accumulated in round order."""
    x = _check_matrix(x, len(model.feature_names))
    out = np.full(x.shape[0], model.base_score, dtype=np.float64)
    for tree in model.trees:
        out += model.params.eta * predict_value(tree, x)
    return out


def predict_proba_boosted(model: BoostedModel, x) -> np.ndarray:
    if model.objective != OBJECTIVE_LOGISTIC:
        raise ValidationError("probabilities are defined only for the logistic objective")
    return sigmoid(predict_margin(model, x))

