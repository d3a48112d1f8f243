"""Metamorphic relations of both ensembles: checks that need no reference implementation.

Scaling every numeric column by a power of two keeps every comparison a
split makes, so every tree array is identical except the numeric
thresholds, which scale exactly, and boosted TreeSHAP is unchanged.
Appending a constant column adds no candidate split, so the boosted trees
are identical, and so are the forest's when every feature is a candidate
at every node.  Each case is the same table with another `x`.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from icui.attribution import tree_shap
from icui.boost import BoostParams, fit_boosted
from icui.data import NUMERIC
from icui.forest import ForestParams, fit_forest
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


def _scaled(ds, factor):
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
