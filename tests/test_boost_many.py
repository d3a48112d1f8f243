"""Batched level-wise boosting against the depth-first grower it replaced.

`fit_boosted_many` grows the trees of every job of a batch together, one
depth at a time, over columns sorted once per fit.  Each job's model must
equal the one tests/boost_oracle.py fits for that job alone, compared with
== on every tree array: no tolerance.  The batches mix job sizes, objectives,
subsampling, ties, constant and many-code columns, and the parameters under
which gains turn NaN.
"""

from __future__ import annotations

import numpy as np
import pytest

import boost_oracle
from conftest import tree_to_dict
from icui import boost as boost_mod
from icui.boost import (
    OBJECTIVE_LOGISTIC,
    OBJECTIVE_SQUARED,
    BoostParams,
    fit_boosted_many,
    fit_boosted_matrix,
)
from icui.data import CATEGORICAL, NUMERIC
from icui.errors import ValidationError

KINDS = [NUMERIC, CATEGORICAL, NUMERIC, NUMERIC, CATEGORICAL, NUMERIC]
NAMES = ["tied", "few", "wide", "const", "many", "dup"]


def _x(rng, n):
    """Tied, constant and duplicate numeric columns; a 3-code and a 12-code categorical."""
    x = np.empty((n, len(KINDS)))
    x[:, 0] = np.round(rng.normal(size=n), 1)
    x[:, 1] = rng.integers(0, 3, n)
    x[:, 2] = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, n)  # magnitudes that round
    x[:, 3] = 2.5
    x[:, 4] = rng.integers(0, 12, n)
    x[:, 5] = x[:, 0]
    return x


def _labels(rng, x):
    logit = 1.5 * x[:, 0] + np.where(x[:, 4] % 3 == 0, 1.0, -0.7) - 0.3 * x[:, 1]
    y = (rng.random(x.shape[0]) < 1.0 / (1.0 + np.exp(-logit))).astype(np.float64)
    y[:2] = [0.0, 1.0]  # both classes in every job
    return y


def _jobs(sizes, objective, seed=0, shared=False):
    rng = np.random.default_rng(seed)
    jobs = []
    x = None
    for j, n in enumerate(sizes):
        if x is None or not shared or x.shape[0] != n:
            x = _x(rng, n)
        if objective == OBJECTIVE_LOGISTIC:
            y = _labels(rng, x)
        else:
            y = x[:, 0] * 2.0 - x[:, 1] + rng.normal(size=n) * 10.0 ** rng.integers(-2, 3, n)
        jobs.append((x, y, 100 + j))
    return jobs


def _same(got, want):
    assert got.base_score == want.base_score
    assert got.seed == want.seed and got.objective == want.objective
    assert [tree_to_dict(t) for t in got.trees] == [tree_to_dict(t) for t in want.trees]


def _check(jobs, params, objective, kinds=KINDS, names=NAMES):
    models = fit_boosted_many(jobs, kinds, names, params, objective)
    assert len(models) == len(jobs)
    for (x, y, seed), model in zip(jobs, models):
        _same(model, boost_oracle.fit_boosted_matrix(x, y, kinds, names, params, seed, objective))
    return models


@pytest.mark.parametrize("objective", [OBJECTIVE_LOGISTIC, OBJECTIVE_SQUARED])
@pytest.mark.parametrize(
    "params",
    [
        BoostParams(n_rounds=4, max_depth=3, eta=0.3),
        BoostParams(n_rounds=3, max_depth=5, eta=0.5, gamma=0.2, min_child_weight=0.0),
        BoostParams(n_rounds=3, max_depth=2, eta=0.3, reg_lambda=0.0, min_child_weight=0.0),
        BoostParams(n_rounds=1, max_depth=0),
    ],
    ids=["default", "gamma-deep", "lambda0-mcw0", "stumps"],
)
def test_batch_equals_depth_first_oracle(objective, params):
    sizes = [60, 3, 95, 17, 40, 8] if objective == OBJECTIVE_LOGISTIC else [60, 1, 95, 2, 17, 1, 40]
    _check(_jobs(sizes, objective), params, objective)


@pytest.mark.parametrize("objective", [OBJECTIVE_LOGISTIC, OBJECTIVE_SQUARED])
@pytest.mark.parametrize("row, col", [(0.6, 1.0), (1.0, 0.5), (0.7, 0.4)])
def test_batch_with_subsampling_equals_oracle(objective, row, col):
    params = BoostParams(n_rounds=5, max_depth=3, eta=0.4, row_subsample=row, col_subsample=col)
    _check(_jobs([50, 4, 80, 31, 50], objective, seed=3), params, objective)


def test_jobs_sharing_one_x_equal_oracle():
    """One-vs-rest jobs pass the same x object; it is stacked and sorted once."""
    jobs = _jobs([70, 70, 70, 25, 25], OBJECTIVE_LOGISTIC, seed=5, shared=True)
    assert jobs[0][0] is jobs[2][0] and jobs[3][0] is jobs[4][0]
    params = BoostParams(n_rounds=3, max_depth=3, eta=0.3, col_subsample=0.5)
    _check(jobs, params, OBJECTIVE_LOGISTIC)


def test_column_subsample_is_drawn_per_job():
    params = BoostParams(n_rounds=3, max_depth=2, eta=0.3, col_subsample=0.34)
    models = _check(_jobs([60] * 6, OBJECTIVE_SQUARED, seed=8), params, OBJECTIVE_SQUARED)
    used = {tuple(sorted(set(t.feature[t.feature >= 0].tolist()))) for m in models for t in m.trees}
    assert len(used) > 1


def test_nan_gains_pick_the_first_nan_as_argmax_does(monkeypatch):
    """Saturated logistic rows have g = h = 0; with lambda = 0 and no child
    weight floor a boundary's G^2/H is 0/0, and np.argmax stops at that NaN."""
    nans = []
    gains = boost_oracle._newton_gains

    def spy(*args, **kwargs):
        out = gains(*args, **kwargs)
        nans.append(bool(np.isnan(out).any()))
        return out

    monkeypatch.setattr(boost_oracle, "_newton_gains", spy)
    params = BoostParams(n_rounds=40, max_depth=3, eta=1.0, reg_lambda=0.0, min_child_weight=0.0)
    rng = np.random.default_rng(11)
    jobs = []
    for j, n in enumerate([40, 25, 60]):
        x = _x(rng, n)
        y = (x[:, 0] > 0).astype(np.float64)
        y[:2] = [0.0, 1.0]
        jobs.append((x, y, j))
    _check(jobs, params, OBJECTIVE_LOGISTIC)
    assert any(nans)


def test_many_code_totals_sum_each_nodes_own_bins():
    """The batch's bin count is 12, but a node holding only codes 0..5 sums 6
    bins: numpy's pairwise sum associates 8 or more terms differently."""
    rng = np.random.default_rng(4)
    jobs = []
    for j, (n, top) in enumerate([(80, 12), (60, 6), (90, 10), (40, 4)]):
        x = _x(rng, n)
        x[:, 4] = rng.integers(0, top, n)
        y = x[:, 4] * 0.37 + rng.normal(size=n) * 0.1
        jobs.append((x, y, j))
    params = BoostParams(n_rounds=4, max_depth=3, eta=0.5, min_child_weight=0.0)
    _check(jobs, params, OBJECTIVE_SQUARED)


def test_jobs_beyond_one_batch_equal_oracle(monkeypatch):
    """Jobs past the batch size go to further batches; a job larger than it fits alone."""
    monkeypatch.setattr(boost_mod, "_BATCH_CELLS", 200)
    jobs = _jobs([10, 20, 70, 5, 5, 30, 30], OBJECTIVE_LOGISTIC, seed=6, shared=True)
    params = BoostParams(n_rounds=3, max_depth=3, eta=0.3, row_subsample=0.8)
    _check(jobs, params, OBJECTIVE_LOGISTIC)


def test_one_job_call_is_fit_boosted_matrix():
    (x, y, seed), = _jobs([70], OBJECTIVE_LOGISTIC, seed=9)
    params = BoostParams(n_rounds=3, max_depth=3, row_subsample=0.8)
    got = fit_boosted_matrix(x, y, KINDS, NAMES, params, seed)
    _same(got, boost_oracle.fit_boosted_matrix(x, y, KINDS, NAMES, params, seed))
    assert fit_boosted_many([], KINDS, NAMES, params) == []


# ------------------------------------------------------------------ bad input


def _bad_inputs():
    x, y, _ = _jobs([20], OBJECTIVE_LOGISTIC)[0]
    x_nan = x.copy()
    x_nan[3, 2] = np.nan
    x_inf = x.copy()
    x_inf[5, 0] = np.inf
    x_code = x.copy()
    x_code[1, 4] = 1.5
    y_two = y.copy()
    y_two[0] = 2.0
    return {
        "nan-in-x": (x_nan, y, OBJECTIVE_LOGISTIC, KINDS, "'wide'"),
        "inf-in-x": (x_inf, y, OBJECTIVE_LOGISTIC, KINDS, "'tied'"),
        "code-not-integer": (x_code, y, OBJECTIVE_LOGISTIC, KINDS, "'many'"),
        "logistic-label-2": (x, y_two, OBJECTIVE_LOGISTIC, KINDS, "0 or 1"),
        "squared-nan-target": (x, np.where(y > 0, np.nan, 0.0), OBJECTIVE_SQUARED, KINDS, "non-finite"),
        "y-length": (x, y[:-1], OBJECTIVE_LOGISTIC, KINDS, "shape"),
        "kinds-length": (x, y, OBJECTIVE_LOGISTIC, KINDS[:-1], "kinds"),
        "x-1d": (x[:, 0], y, OBJECTIVE_LOGISTIC, KINDS, "2-D"),
    }


@pytest.mark.parametrize("case", sorted(_bad_inputs()))
def test_bad_input_raises_validation_error(case):
    x, y, objective, kinds, message = _bad_inputs()[case]
    with pytest.raises(ValidationError, match=message):
        fit_boosted_matrix(x, y, kinds, NAMES, BoostParams(n_rounds=1), 0, objective)
    good = _jobs([15], objective)[0]
    with pytest.raises(ValidationError, match="job 1: " if case != "kinds-length" else "kinds"):
        fit_boosted_many([good, (x, y, 1)], kinds, NAMES, BoostParams(n_rounds=1), objective)


def test_fit_without_feature_columns_is_rejected():
    with pytest.raises(ValidationError, match="feature column"):
        fit_boosted_matrix(np.zeros((6, 0)), np.array([0.0, 1, 0, 1, 1, 0]), [], [], BoostParams(n_rounds=1))
