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

import json
import math
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from . import split
from .data import Dataset, design_matrix
from .errors import ValidationError
from .rng import make_rng
from .trees import Tree, TreeBuilder, _check_matrix, predict_value, tree_from_dict, tree_to_dict

MODEL_FORMAT = "icui-model"
MODEL_VERSION = 1

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
            ("max_depth", self.max_depth >= 0, ">= 0"),
            ("eta", self.eta > 0, "> 0"),
            ("reg_lambda", self.reg_lambda >= 0, ">= 0"),
            ("gamma", self.gamma >= 0, ">= 0"),
            ("min_child_weight", self.min_child_weight >= 0, ">= 0"),
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
        best = split.best_split(x, rows, features, is_cat, gn, hn, score)
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


def boosted_to_dict(model: BoostedModel) -> dict:
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "kind": "boosted",
        "params": asdict(model.params),
        "base_score": model.base_score,
        "objective": model.objective,
        "feature_names": list(model.feature_names),
        "feature_kinds": list(model.feature_kinds),
        "seed": model.seed,
        "trees": [tree_to_dict(t) for t in model.trees],
    }


def boosted_from_dict(payload: dict) -> BoostedModel:
    if payload.get("format") != MODEL_FORMAT or payload.get("kind") != "boosted":
        raise ValidationError("not a boosted model file")
    if payload.get("version") != MODEL_VERSION:
        raise ValidationError(f"unsupported model version {payload.get('version')!r}")
    return BoostedModel(
        trees=[tree_from_dict(t) for t in payload["trees"]],
        base_score=float(payload["base_score"]),
        params=BoostParams(**payload["params"]),
        feature_names=list(payload["feature_names"]),
        feature_kinds=list(payload["feature_kinds"]),
        objective=payload["objective"],
        seed=int(payload["seed"]),
    )


def save_boosted(model: BoostedModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(boosted_to_dict(model), fh, sort_keys=True)


def load_boosted(path: str) -> BoostedModel:
    with open(path, encoding="utf-8") as fh:
        return boosted_from_dict(json.load(fh))
