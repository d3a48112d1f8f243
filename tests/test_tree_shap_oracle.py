"""`tree_shap` against the per-pattern oracle: the same bits, not approximately."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import TreeBuilder
from icui.attribution import _ensemble_views, _tree_leaves, tree_shap
from icui.boost import BoostParams, fit_boosted
from icui.data import CATEGORICAL, NUMERIC, design_matrix
from icui.forest import ForestModel, ForestParams, fit_forest
from icui.synth import SynthSpec, generate
from shap_oracle import shapley_bruteforce, tree_shap_oracle


@pytest.fixture(scope="module")
def table():
    """A complete synthetic table with numeric and categorical columns, and its matrix."""
    ds, _ = generate(SynthSpec(n_rows=600, n_features=30, n_signal=4, seed=5))
    x, kinds, _ = design_matrix(ds)
    assert CATEGORICAL in kinds
    return ds, x


@pytest.fixture(scope="module")
def deep_forest(table):
    """Default-depth trees grown to single rows: path lengths 1 to 14."""
    ds, _ = table
    return fit_forest(ds, ForestParams(n_trees=6, min_samples_leaf=1), seed=3)


def _assert_matches_oracle(model, rows):
    got = tree_shap(model, rows)
    want = tree_shap_oracle(model, rows)
    assert np.array_equal(got.phi, want.phi)
    assert got.base_value == want.base_value
    assert got.output_space == want.output_space
    assert got.feature_names == want.feature_names
    return got


def _leaves(model):
    views, _, _, _ = _ensemble_views(model)
    return [leaf for tree, scale in views for leaf in _tree_leaves(tree, scale)]


def _path_splits(model):
    """Every leaf's per-feature tuples of (threshold, categorical, went_left) splits."""
    return [splits for leaf in _leaves(model) for splits in leaf.splits]


def _split_twice(splits) -> bool:
    """Does a leaf's path split one feature two or more times?"""
    return len(splits) >= 2


def _both_ways(splits) -> bool:
    """Does a leaf's path go both left and right at its splits on one feature (two or more)?"""
    return {went_left for _, _, went_left in splits} == {True, False}


def test_deep_forest(table, deep_forest):
    _, x = table
    lengths = {leaf.feats.size for leaf in _leaves(deep_forest)}
    assert set(range(1, 11)) <= lengths
    _assert_matches_oracle(deep_forest, x[:60])


@pytest.mark.parametrize("mtry", [1, 2])
def test_forest_small_mtry(table, mtry):
    # with few candidate features per node, paths often split a feature twice;
    # one hand-built tree on the table's columns makes sure the forest holds
    # both kinds of double split, whatever the fitted trees grow
    ds, x = table
    fitted = fit_forest(ds, ForestParams(n_trees=4, min_samples_leaf=1, mtry=mtry), seed=1)
    cat, num = fitted.feature_kinds.index(CATEGORICAL), fitted.feature_kinds.index(NUMERIC)
    codes = np.unique(x[:, cat])[:2]
    cuts = np.quantile(x[:, num], [1 / 3, 2 / 3])
    model = dataclasses.replace(fitted, trees=[*fitted.trees, _hand_tree(cat, num, codes, cuts)])
    paths = _path_splits(model)
    assert any(s[0][1] and _split_twice(s) for s in paths)
    assert any(not s[0][1] and _both_ways(s) for s in paths)
    _assert_matches_oracle(model, x[:60])


def test_subsampled_boosted_model(table):
    ds, x = table
    params = BoostParams(n_rounds=25, max_depth=4, row_subsample=0.7, col_subsample=0.5)
    model = fit_boosted(ds, params, seed=4)
    _assert_matches_oracle(model, x[:80])


def _hand_tree(cat, num, codes, cuts):
    """One tree over a categorical column `cat` and a numeric `num`, each split twice on a path.

    root: cat == codes[0] ? A : (cat == codes[1] ? B : (num <= cuts[0] ? C : (num <= cuts[1] ? D : E)))
    """
    bld = TreeBuilder(track_class_counts=True)
    sizes = {"root": 40.0, "A": 6.0, "r1": 34.0, "B": 9.0, "r2": 25.0,
             "C": 7.0, "r3": 18.0, "D": 11.0, "E": 7.0}
    values = {"A": 0.9, "B": -0.4, "C": 0.3, "D": -1.2, "E": 2.5}
    node = {name: bld.add_node(n, values.get(name, 0.0), (0.0, 0.0)) for name, n in sizes.items()}
    for parent, feature, thr, is_cat, lo, hi in (
        ("root", cat, codes[0], True, "A", "r1"),
        ("r1", cat, codes[1], True, "B", "r2"),
        ("r2", num, cuts[0], False, "C", "r3"),
        ("r3", num, cuts[1], False, "D", "E"),
    ):
        bld.set_split(node[parent], feature, thr, is_cat, 1.0)
        bld.link(node[parent], node[lo], node[hi])
    return bld.build()


def _hand_model():
    """`_hand_tree` over a categorical f0 (codes 1, 2) and a numeric f1 (cuts 0, 3)."""
    return ForestModel(
        trees=[_hand_tree(0, 1, (1.0, 2.0), (0.0, 3.0))],
        params=ForestParams(n_trees=1),
        feature_names=["f0", "f1", "f2"],
        feature_kinds=[CATEGORICAL, NUMERIC, NUMERIC],
        bootstrap_n=40,
        seed=0,
    )


def test_hand_tree_with_repeated_categorical_and_numeric_splits():
    model = _hand_model()
    paths = _path_splits(model)
    assert ((1.0, True, False), (2.0, True, False)) in paths
    assert any(not s[0][1] and _both_ways(s) for s in paths)
    grid = np.array([[f0, f1, 0.0] for f0 in (0.0, 1.0, 2.0, 3.0) for f1 in (-1.0, 0.0, 2.0, 3.0, 5.0)])
    _assert_matches_oracle(model, grid)


def test_single_leaf_tree():
    bld = TreeBuilder(track_class_counts=True)
    bld.add_node(5.0, 0.7, (0.0, 0.0))
    model = ForestModel(
        trees=[bld.build(), _hand_model().trees[0]],
        params=ForestParams(n_trees=2),
        feature_names=["f0", "f1", "f2"],
        feature_kinds=[CATEGORICAL, NUMERIC, NUMERIC],
        bootstrap_n=40,
        seed=0,
    )
    _assert_matches_oracle(model, np.array([[2.0, 1.0, 0.0], [0.0, 4.0, 1.0]]))


def test_one_row_and_rows_sharing_patterns(table):
    ds, x = table
    model = fit_forest(ds, ForestParams(n_trees=3, max_depth=10, min_samples_leaf=2), seed=6)
    one = _assert_matches_oracle(model, x[7:8])
    shared = _assert_matches_oracle(model, np.repeat(x[5:10], 30, axis=0))
    assert np.array_equal(shared.phi[60], one.phi[0])
    assert np.array_equal(shared.phi[::30], _assert_matches_oracle(model, x[5:10]).phi)


def test_path_no_row_can_take_matches_brute_force():
    """A path left on f0 == 1, then left on f0 == 2: no row reaches its leaf.

    root: f0 == 1 ? (f0 == 2 ? A : B) : (f1 <= 0.5 ? C : D)

    A fitted tree never grows it, since a node holding one code has no split
    on that feature; d_j must still be false for every row at A.
    """
    bld = TreeBuilder(track_class_counts=True)
    sizes = {"root": 40.0, "l1": 20.0, "A": 8.0, "B": 12.0, "r1": 20.0, "C": 9.0, "D": 11.0}
    values = {"A": 1.0, "B": -0.5, "C": 0.25, "D": 0.75}
    node = {name: bld.add_node(n, values.get(name, 0.0), (0.0, 0.0)) for name, n in sizes.items()}
    for parent, feature, thr, cat, lo, hi in (
        ("root", 0, 1.0, True, "l1", "r1"),
        ("l1", 0, 2.0, True, "A", "B"),
        ("r1", 1, 0.5, False, "C", "D"),
    ):
        bld.set_split(node[parent], feature, thr, cat, 1.0)
        bld.link(node[parent], node[lo], node[hi])
    model = ForestModel(
        trees=[bld.build()],
        params=ForestParams(n_trees=1),
        feature_names=["f0", "f1", "f2"],
        feature_kinds=[CATEGORICAL, NUMERIC, NUMERIC],
        bootstrap_n=40,
        seed=0,
    )
    grid = np.array([[f0, f1, 0.0] for f0 in (0.0, 1.0, 2.0, 3.0) for f1 in (0.0, 1.0)])
    got = _assert_matches_oracle(model, grid)
    for row, phi in zip(grid, got.phi):
        want, base = shapley_bruteforce(model, row)
        assert np.abs(phi - want).max() <= 1e-12
        assert abs(got.base_value - base) <= 1e-12
