"""Metamorphic relations of both ensembles: checks that need no reference implementation.

Scaling every numeric column by a power of two keeps every comparison a
split makes, so every tree array is identical except the numeric
thresholds, which scale exactly, and boosted TreeSHAP is unchanged.
Appending a constant column adds no candidate split, so the boosted trees
are identical, and so are the forest's when every feature is a candidate
at every node.  Each case is the same table with another `x`.

The same scaling carries through the whole cross-validation: every fold's
metrics, curves, importances and Shapley values are equal.  An imputer's
squared-error fits scale with their target, so doubling one numeric column
exactly doubles its imputed values and leaves every other column's alone.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from icui.attribution import tree_shap
from icui.boost import BoostParams, fit_boosted
from icui.data import NUMERIC
from icui.evaluate import MODEL_BOOSTED, MODEL_RF, ModelSpec, run_cv
from icui.forest import ForestParams, fit_forest
from icui.impute import ImputeParams, fit_imputation, impute
from icui.synth import SynthSpec, generate
from icui.trees import LEAF

SAME_FIELDS = ("feature", "categorical", "left", "right", "n_samples", "value", "gain", "class_counts")
BOOSTED = {
    "plain": BoostParams(n_rounds=12, max_depth=3, eta=0.3),
    "subsampled": BoostParams(n_rounds=12, max_depth=3, eta=0.3, row_subsample=0.7, col_subsample=0.6),
}


@pytest.fixture(scope="module")
def ds():
    """400 rows, 8 numeric and 4 categorical columns."""
    return generate(SynthSpec(n_rows=400, n_features=12, n_signal=4, seed=5))[0]


def _scaled(ds, factor, numeric=None):
    """`ds` with every numeric column, or the columns flagged in `numeric`, times `factor`."""
    if numeric is None:
        numeric = np.array([kind == NUMERIC for kind in ds.kinds])
    return replace(ds, x=np.where(numeric, ds.x * factor, ds.x))


def _with_constant_column(ds):
    x = np.column_stack([ds.x, np.full(ds.n_rows, 3.0)])
    return replace(ds, names=ds.names + ["const"], kinds=ds.kinds + [NUMERIC], x=x)


def _assert_same_trees(a, b, factor=1.0):
    assert len(a.trees) == len(b.trees)
    for ta, tb in zip(a.trees, b.trees):
        for name in SAME_FIELDS:
            va, vb = getattr(ta, name), getattr(tb, name)
            assert (va is None and vb is None) or (va.shape == vb.shape and va.tobytes() == vb.tobytes()), name
        numeric = (ta.feature != LEAF) & ~ta.categorical
        assert (ta.threshold[numeric] * factor).tobytes() == tb.threshold[numeric].tobytes()
        assert ta.threshold[~numeric].tobytes() == tb.threshold[~numeric].tobytes()


@pytest.mark.parametrize("factor", [2.0, 0.5, 1024.0])
def test_forest_is_invariant_under_scaling(ds, factor):
    params = ForestParams(n_trees=6, max_depth=8, min_samples_leaf=3)
    _assert_same_trees(fit_forest(ds, params, seed=1), fit_forest(_scaled(ds, factor), params, seed=1), factor)


@pytest.mark.parametrize("factor", [2.0, 0.5, 1024.0])
@pytest.mark.parametrize("params", BOOSTED.values(), ids=BOOSTED)
def test_boosted_trees_and_shap_are_invariant_under_scaling(ds, factor, params):
    scaled = _scaled(ds, factor)
    model, model_s = fit_boosted(ds, params, seed=2), fit_boosted(scaled, params, seed=2)
    _assert_same_trees(model, model_s, factor)
    assert model.base_score == model_s.base_score
    attr, attr_s = tree_shap(model, ds.x[:60]), tree_shap(model_s, scaled.x[:60])
    assert attr.phi.tobytes() == attr_s.phi.tobytes()
    assert attr.base_value == attr_s.base_value


def test_boosted_trees_ignore_a_constant_column(ds):
    params = BOOSTED["plain"]
    _assert_same_trees(fit_boosted(ds, params, seed=3), fit_boosted(_with_constant_column(ds), params, seed=3))


def test_forest_with_every_feature_a_candidate_ignores_a_constant_column(ds):
    wide = _with_constant_column(ds)
    params = ForestParams(n_trees=6, max_depth=8, min_samples_leaf=3)
    _assert_same_trees(
        fit_forest(ds, replace(params, mtry=len(ds.names)), seed=4),
        fit_forest(wide, replace(params, mtry=len(wide.names)), seed=4),
    )


@pytest.mark.parametrize("factor", [2.0, 0.5, 1024.0, 2.0**-30])
def test_run_cv_is_invariant_under_scaling(factor):
    ds = generate(SynthSpec(n_rows=300, n_features=12, n_signal=3, seed=4))[0]
    specs = [
        ModelSpec(MODEL_RF, ForestParams(n_trees=6, max_depth=6, min_samples_leaf=3)),
        ModelSpec(MODEL_BOOSTED, replace(BOOSTED["subsampled"], n_rounds=8)),
    ]
    base = run_cv(ds, specs, k=3, seed=3, clusters_k=3)
    scaled = run_cv(_scaled(ds, factor), specs, k=3, seed=3, clusters_k=3)
    for kind in (MODEL_RF, MODEL_BOOSTED):
        for a, b in zip(base[kind].folds, scaled[kind].folds, strict=True):
            assert a.error is None and b.error is None
            assert (a.auroc, a.auprc) == (b.auroc, b.auprc)
            assert (a.roc_points, a.pr_points) == (b.roc_points, b.pr_points)
            assert a.importance.scores.tobytes() == b.importance.scores.tobytes()
            if kind == MODEL_BOOSTED:
                assert a.attribution.phi.tobytes() == b.attribution.phi.tobytes()
                assert a.attribution.base_value == b.attribution.base_value


@pytest.mark.parametrize("row_subsample", [1.0, 0.7])
@pytest.mark.parametrize("algorithm", ["a1", "a2", "a3", "select"])
def test_doubling_a_numeric_target_doubles_its_imputed_values(algorithm, row_subsample):
    ds = generate(SynthSpec(n_rows=200, n_features=8, n_signal=2, missing_rate=0.15, seed=6))[0]
    # ten imputer rounds keep the case fast; the relation holds at the default fifty too
    params = ImputeParams(algorithm=algorithm, min_rows=10, seed=2)
    params.boost = replace(params.boost, n_rounds=10, row_subsample=row_subsample)
    base = impute(ds, fit_imputation(ds, params)).x
    for j, kind in enumerate(ds.kinds):
        if kind != NUMERIC:
            continue
        target = np.arange(len(ds.names)) == j
        doubled = _scaled(ds, 2.0, target)
        got = impute(doubled, fit_imputation(doubled, params)).x
        assert (base[:, j] * 2.0).tobytes() == got[:, j].tobytes(), ds.names[j]
        assert base[:, ~target].tobytes() == got[:, ~target].tobytes(), ds.names[j]
