from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from boost_oracle import leaf_weight, logistic_grad_hess, split_gain
from conftest import TreeBuilder, build_dataset, model_to_dict
from icui.boost import (
    OBJECTIVE_LOGISTIC,
    OBJECTIVE_SQUARED,
    BoostedModel,
    BoostParams,
    fit_boosted,
    fit_boosted_matrix,
    predict_margin,
    predict_proba_boosted,
    sigmoid,
)
from icui.data import CATEGORICAL, NUMERIC, design_matrix
from icui.errors import ValidationError
from icui.trees import LEAF, predict_value

NUM = "numeric"


# ------------------------------------------------------------------ primitives


def test_sigmoid_midpoint_and_tails():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(np.array([800.0]))[0] == 1.0
    assert sigmoid(np.array([-800.0]))[0] == 0.0
    x = np.linspace(-20, 20, 101)
    assert np.allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-15)


def test_logistic_grad_hess_worked_example():
    g, h = logistic_grad_hess(2.0, 1)
    assert g == pytest.approx(-0.1192029220221176, abs=1e-9)
    assert h == pytest.approx(0.1049935854035065, abs=1e-9)
    g0, _ = logistic_grad_hess(2.0, 0)
    assert g0 == pytest.approx(0.8807970779778824, abs=1e-9)


def test_logistic_grad_hess_rejects_bad_label():
    with pytest.raises(ValidationError):
        logistic_grad_hess(0.0, 2)


def test_leaf_weight_worked_example():
    assert leaf_weight(4.0, 7.0, 1.0) == -0.5
    assert leaf_weight(-3.0, 2.0, 1.0) == 1.0
    with pytest.raises(ValidationError):
        leaf_weight(1.0, -2.0, 1.0)


def test_split_gain_worked_example():
    # s_l = 16/4, s_r = 4/2, s_p = 4/5
    assert split_gain(-4.0, 3.0, 2.0, 1.0, 1.0) == pytest.approx(2.6, abs=1e-12)
    assert split_gain(-4.0, 3.0, 2.0, 1.0, 1.0, gamma=0.5) == pytest.approx(2.1, abs=1e-12)


def test_split_gain_matches_exact_rational_formula():
    rng = np.random.default_rng(2)
    for _ in range(200):
        gl, gr = (int(v) for v in rng.integers(-9, 10, 2))
        hl, hr = (int(v) for v in rng.integers(1, 10, 2))
        lam = int(rng.integers(0, 4))
        want = Fraction(1, 2) * (
            Fraction(gl * gl, hl + lam)
            + Fraction(gr * gr, hr + lam)
            - Fraction((gl + gr) ** 2, hl + hr + lam)
        )
        assert split_gain(gl, hl, gr, hr, lam) == pytest.approx(float(want), rel=1e-12, abs=1e-12)


# ------------------------------------------------------------ single-round fit


def test_one_round_depth_one_hand_computed():
    x = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    params = BoostParams(n_rounds=1, eta=0.1, max_depth=1, reg_lambda=1.0, min_child_weight=0.0)
    model = fit_boosted_matrix(x, y, [NUM], ["x"], params, seed=0)

    assert model.base_score == 0.0  # logit(0.5)
    tree = model.trees[0]
    # g = [.5,.5,-.5,-.5], h = .25 each; best split 2.5 with gain
    # 0.5 * (1/1.5 + 1/1.5 - 0) = 2/3
    assert tree.feature[0] == 0
    assert tree.threshold[0] == 2.5
    assert tree.gain[0] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert tree.value[1] == -1.0 / 1.5  # leaf_weight(1.0, 0.5, 1)
    assert tree.value[2] == 1.0 / 1.5

    margins = predict_margin(model, x)
    want = 0.1 * (1.0 / 1.5)
    assert margins.tolist() == [-want, -want, want, want]


def test_base_score_is_log_odds_of_prevalence():
    x = np.arange(8.0).reshape(-1, 1)
    y = np.array([0, 0, 0, 0, 0, 0, 1, 1], dtype=float)
    model = fit_boosted_matrix(x, y, [NUM], ["x"], BoostParams(n_rounds=1), seed=0)
    assert model.base_score == math.log(0.25 / 0.75)


def test_min_child_weight_blocks_small_hessian_children():
    x = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    blocked = fit_boosted_matrix(
        x, y, [NUM], ["x"], BoostParams(n_rounds=1, max_depth=2, min_child_weight=1.0), seed=0
    )
    assert blocked.trees[0].n_nodes == 1  # h sums to 1.0, any split leaves < 1 per side
    free = fit_boosted_matrix(
        x, y, [NUM], ["x"], BoostParams(n_rounds=1, max_depth=2, min_child_weight=0.0), seed=0
    )
    assert free.trees[0].n_nodes > 1


def test_gamma_suppresses_weak_splits():
    x = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    params = BoostParams(n_rounds=1, max_depth=1, min_child_weight=0.0, gamma=1.0)
    model = fit_boosted_matrix(x, y, [NUM], ["x"], params, seed=0)
    assert model.trees[0].n_nodes == 1  # best raw gain 2/3 < gamma


# ----------------------------------------------------------- root split oracle


def _oracle_root_split(x, y, kinds, params):
    prevalence = y.mean()
    base = math.log(prevalence / (1.0 - prevalence))
    p = sigmoid(np.full(len(y), base))
    g = p - y
    h = p * (1.0 - p)
    best = None
    second = -np.inf
    for f in range(x.shape[1]):
        col = x[:, f]
        cat = kinds[f] == CATEGORICAL
        if cat:
            cands = sorted(set(col.tolist()))
        else:
            vals = sorted(set(col.tolist()))
            cands = [(a + b) / 2.0 for a, b in zip(vals, vals[1:])]
        for thr in cands:
            m = (col == thr) if cat else (col <= thr)
            if m.all() or not m.any():
                continue
            h_l, h_r = h[m].sum(), h[~m].sum()
            if h_l < params.min_child_weight or h_r < params.min_child_weight:
                continue
            gain = split_gain(
                g[m].sum(), h_l, g[~m].sum(), h_r, params.reg_lambda, params.gamma
            )
            if gain <= 0.0:
                continue
            if best is None or gain > best[0]:
                second = best[0] if best is not None else -np.inf
                best = (gain, f, thr, cat)
            elif gain > second:
                second = gain
    return best, second


def test_first_round_root_split_matches_enumeration_oracle():
    rng = np.random.default_rng(17)
    kinds = [NUM, NUM, CATEGORICAL]
    decided = 0
    for _ in range(40):
        n = int(rng.integers(8, 30))
        x = np.column_stack(
            [rng.standard_normal(n), rng.standard_normal(n), rng.integers(0, 3, n).astype(float)]
        )
        y = rng.integers(0, 2, n).astype(float)
        if y.min() == y.max():
            continue
        params = BoostParams(n_rounds=1, max_depth=1, min_child_weight=0.25, reg_lambda=1.0)
        model = fit_boosted_matrix(x, y, kinds, ["a", "b", "c"], params, seed=0)
        tree = model.trees[0]
        want, second = _oracle_root_split(x, y, kinds, params)
        if want is None:
            assert tree.n_nodes == 1
            continue
        gain, f, thr, cat = want
        if gain - second < 1e-7:
            continue  # near-tie: summation-order noise may flip the pick
        assert tree.feature[0] == f
        assert tree.threshold[0] == thr
        assert bool(tree.categorical[0]) == cat
        assert tree.gain[0] == pytest.approx(gain, rel=1e-9, abs=1e-12)
        decided += 1
    assert decided >= 20


# ------------------------------------------------------------- model behavior


def _toy_problem(n=120, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 3))
    logits = 1.8 * x[:, 0] - 1.2 * x[:, 1]
    y = (rng.random(n) < sigmoid(logits)).astype(float)
    if y.min() == y.max():  # keep the fixture two-class
        y[0] = 1.0 - y[0]
    return x, y


def test_training_loss_decreases():
    x, y = _toy_problem()
    params = BoostParams(n_rounds=40, eta=0.2, max_depth=3)
    model = fit_boosted_matrix(x, y, [NUM] * 3, ["a", "b", "c"], params, seed=0)

    def loss_after(k):
        m = np.full(len(y), model.base_score)
        for t in model.trees[:k]:
            m += params.eta * predict_value(t, x)
        p = np.clip(sigmoid(m), 1e-12, 1 - 1e-12)
        return -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))

    first, last = loss_after(0), loss_after(40)
    assert last < first
    assert loss_after(10) < first


def test_margin_update_uses_all_rows_even_when_subsampled():
    x, y = _toy_problem(n=60)
    params = BoostParams(n_rounds=8, eta=0.3, max_depth=2, row_subsample=0.6)
    model = fit_boosted_matrix(x, y, [NUM] * 3, ["a", "b", "c"], params, seed=3)
    # final margins must equal the replay over every row, in round order
    replay = np.full(len(y), model.base_score)
    for t in model.trees:
        replay += params.eta * predict_value(t, x)
    assert np.array_equal(predict_margin(model, x), replay)


def test_deterministic_same_seed_and_distinct_seeds_with_subsampling():
    x, y = _toy_problem(n=80)
    params = BoostParams(n_rounds=6, max_depth=2, row_subsample=0.7, col_subsample=0.67)
    dump = lambda m: json.dumps(model_to_dict(m, "boosted"), sort_keys=True)
    a = fit_boosted_matrix(x, y, [NUM] * 3, list("abc"), params, seed=5)
    b = fit_boosted_matrix(x, y, [NUM] * 3, list("abc"), params, seed=5)
    c = fit_boosted_matrix(x, y, [NUM] * 3, list("abc"), params, seed=6)
    assert dump(a) == dump(b)
    assert dump(a) != dump(c)


def test_full_data_fit_is_deterministic_without_rng():
    x, y = _toy_problem(n=50)
    params = BoostParams(n_rounds=4, max_depth=3)
    a = fit_boosted_matrix(x, y, [NUM] * 3, list("abc"), params, seed=1)
    b = fit_boosted_matrix(x, y, [NUM] * 3, list("abc"), params, seed=99)
    dump = lambda m: json.dumps(model_to_dict(m, "boosted")["trees"])
    assert dump(a) == dump(b)


def test_single_class_labels_rejected_for_logistic():
    x = np.arange(6.0).reshape(-1, 1)
    with pytest.raises(ValidationError, match="single class"):
        fit_boosted_matrix(x, np.zeros(6), [NUM], ["x"], BoostParams(n_rounds=1), seed=0)


def test_squared_objective_fits_mean_and_converges():
    x = np.array([[0.0], [0.0], [1.0], [1.0]])
    y = np.array([1.0, 2.0, 5.0, 7.0])
    params = BoostParams(n_rounds=60, eta=0.3, max_depth=1, reg_lambda=0.0, min_child_weight=0.0)
    model = fit_boosted_matrix(x, y, [NUM], ["x"], params, seed=0, objective=OBJECTIVE_SQUARED)
    assert model.base_score == 3.75
    pred = predict_margin(model, x)
    assert pred[0] == pytest.approx(1.5, abs=1e-3)
    assert pred[2] == pytest.approx(6.0, abs=1e-3)
    with pytest.raises(ValidationError):
        predict_proba_boosted(model, x)


def test_unknown_objective_rejected():
    x = np.zeros((4, 1))
    with pytest.raises(ValidationError, match="objective"):
        fit_boosted_matrix(x, np.array([0.0, 1, 0, 1]), [NUM], ["x"], objective="hinge")


def test_fit_boosted_dataset_wrapper_and_categorical_split():
    codes = np.array([0, 1, 2, 0, 1, 2, 0, 1] * 4)
    y = (codes == 1).astype(int)
    ds = build_dataset(
        categorical={"grp": (codes, ["u", "v", "w"])},
        labels=y,
    )
    params = BoostParams(n_rounds=3, max_depth=1, eta=0.5, min_child_weight=0.0)
    model = fit_boosted(ds, params, seed=0)
    tree = model.trees[0]
    assert bool(tree.categorical[0])
    assert tree.threshold[0] == 1.0
    x, _, _ = design_matrix(ds)
    p = predict_proba_boosted(model, x)
    assert ((p > 0) & (p < 1)).all()
    assert p[codes == 1].min() > p[codes != 1].max()


def test_predict_margin_accumulates_in_round_order():
    leaves = []
    for value in (1.0, 2.0):
        b = TreeBuilder(track_class_counts=False)
        b.add_node(4.0, value)
        leaves.append(b.build())
    model = BoostedModel(
        trees=leaves,
        base_score=0.1,
        params=BoostParams(eta=0.5),
        feature_names=["a"],
        feature_kinds=[NUM],
        objective=OBJECTIVE_LOGISTIC,
        seed=0,
    )
    out = predict_margin(model, np.zeros((3, 1)))
    assert out.tolist() == [(0.1 + 0.5) + 1.0] * 3


def test_validation_of_params_and_matrix():
    x, y = _toy_problem(n=20)
    with pytest.raises(ValidationError):
        fit_boosted_matrix(x, y, [NUM] * 3, list("abc"), BoostParams(n_rounds=0))
    with pytest.raises(ValidationError):
        fit_boosted_matrix(x, y, [NUM] * 3, list("abc"), BoostParams(row_subsample=0.0))
    model = fit_boosted_matrix(x, y, [NUM] * 3, list("abc"), BoostParams(n_rounds=1))
    with pytest.raises(ValidationError):
        predict_margin(model, np.zeros((2, 2)))


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_rounds", 0),
        ("max_depth", -1),
        ("eta", 0.0),
        ("eta", -1.0),
        ("reg_lambda", -0.5),
        ("gamma", -1.0),
        ("min_child_weight", -1.0),
        ("reg_lambda", float("nan")),
        ("row_subsample", 0.0),
        ("row_subsample", 1.5),
        ("col_subsample", -0.1),
        ("col_subsample", float("nan")),
    ],
)
def test_boost_params_reject_out_of_range_values(field, value):
    with pytest.raises(ValidationError, match=field):
        BoostParams(**{field: value})


def test_boost_params_accept_boundary_values():
    BoostParams(max_depth=0, eta=1e-9, reg_lambda=0.0, gamma=0.0, min_child_weight=0.0)
    BoostParams(n_rounds=1, row_subsample=1.0, col_subsample=1e-9)
