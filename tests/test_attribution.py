from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import TreeBuilder, build_dataset
from icui.attribution import (
    OUTPUT_MARGIN,
    OUTPUT_PROBABILITY,
    attribution_to_csv,
    global_shap_importance,
    tree_shap,
)
from icui.boost import BoostParams, fit_boosted_matrix, predict_margin
from icui.data import CATEGORICAL, NUMERIC, design_matrix
from icui.errors import ValidationError
from icui.forest import ForestModel, ForestParams, fit_forest, predict_proba_forest
from shap_oracle import coalition_value, model_output, shapley_bruteforce, subset_weight_table

ASSETS = Path(__file__).parent / "assets"


# ------------------------------------------------------------- subset weights


def test_subset_weight_table_sums_to_one_exactly():
    for n in range(1, 11):
        w = subset_weight_table(n)
        total = sum(Fraction(math.comb(n - 1, s)) * w[s] for s in range(n))
        assert total == Fraction(1)


def test_subset_weight_table_small_cases():
    assert subset_weight_table(1) == [Fraction(1)]
    assert subset_weight_table(3) == [Fraction(1, 3), Fraction(1, 6), Fraction(1, 3)]
    with pytest.raises(ValidationError):
        subset_weight_table(0)


# ------------------------------------------------------- hand-derived fixtures


def _stump_forest(a=1.0, b=-0.5, n_left=4.0, n_right=6.0):
    """One tree: split f0 <= 0, two extra unused features."""
    bld = TreeBuilder(track_class_counts=True)
    root = bld.add_node(n_left + n_right, 0.0, (0.0, 0.0))
    bld.set_split(root, 0, 0.0, False, 1.0)
    lo = bld.add_node(n_left, a, (0.0, 0.0))
    hi = bld.add_node(n_right, b, (0.0, 0.0))
    bld.link(root, lo, hi)
    return ForestModel(
        trees=[bld.build()],
        params=ForestParams(n_trees=1),
        feature_names=["f0", "f1"],
        feature_kinds=[NUMERIC, NUMERIC],
        bootstrap_n=10,
        seed=0,
    )


def test_stump_shapley_by_hand():
    # base = 0.4a + 0.6b; left row: phi_0 = a - base = 0.6(a - b)
    model = _stump_forest()
    attr = tree_shap(model, np.array([[-1.0, 5.0], [1.0, 5.0]]))
    assert attr.base_value == pytest.approx(0.4 * 1.0 + 0.6 * -0.5, abs=1e-15)
    assert attr.phi[0, 0] == pytest.approx(0.6 * 1.5, abs=1e-12)
    assert attr.phi[1, 0] == pytest.approx(-0.4 * 1.5, abs=1e-12)
    assert attr.phi[0, 1] == 0.0  # feature absent from every path
    assert attr.phi[1, 1] == 0.0
    assert attr.output_space == OUTPUT_PROBABILITY


def _depth2_forest():
    """Root f0 <= 0 (4/10 left); right child splits f1 <= 0 (3/6 left)."""
    bld = TreeBuilder(track_class_counts=True)
    root = bld.add_node(10.0, 0.0, (0.0, 0.0))
    bld.set_split(root, 0, 0.0, False, 1.0)
    leaf_a = bld.add_node(4.0, 2.0, (0.0, 0.0))
    mid = bld.add_node(6.0, 0.0, (0.0, 0.0))
    bld.link(root, leaf_a, mid)
    bld.set_split(mid, 1, 0.0, False, 1.0)
    leaf_b = bld.add_node(3.0, -1.0, (0.0, 0.0))
    leaf_c = bld.add_node(3.0, 0.5, (0.0, 0.0))
    bld.link(mid, leaf_b, leaf_c)
    return ForestModel(
        trees=[bld.build()],
        params=ForestParams(n_trees=1),
        feature_names=["f0", "f1"],
        feature_kinds=[NUMERIC, NUMERIC],
        bootstrap_n=10,
        seed=0,
    )


def test_depth2_shapley_by_hand():
    model = _depth2_forest()
    rows = np.array([[-1.0, -1.0], [1.0, 1.0]])
    attr = tree_shap(model, rows)
    # f(empty) = 0.4*2 + 0.3*(-1) + 0.3*0.5 = 0.65
    assert attr.base_value == pytest.approx(0.65, abs=1e-15)
    # row 0 reaches leaf A: phi_0 = 0.6*vA - 0.45*vB - 0.15*vC, phi_1 = 0.15(vB - vC)
    assert attr.phi[0, 0] == pytest.approx(1.575, abs=1e-12)
    assert attr.phi[0, 1] == pytest.approx(-0.225, abs=1e-12)
    # row 1 reaches leaf C
    assert attr.phi[1, 0] == pytest.approx(-0.75, abs=1e-12)
    assert attr.phi[1, 1] == pytest.approx(0.6, abs=1e-12)
    # local accuracy: base + sum(phi) = leaf value reached
    assert attr.base_value + attr.phi[0].sum() == pytest.approx(2.0, abs=1e-12)
    assert attr.base_value + attr.phi[1].sum() == pytest.approx(0.5, abs=1e-12)


def test_depth2_bruteforce_agrees_with_hand_values():
    model = _depth2_forest()
    phi, base = shapley_bruteforce(model, np.array([-1.0, -1.0]))
    assert base == pytest.approx(0.65, abs=1e-15)
    assert phi[0] == pytest.approx(1.575, abs=1e-12)
    assert phi[1] == pytest.approx(-0.225, abs=1e-12)


def test_coalition_value_definitional_cases():
    model = _depth2_forest()
    row = np.array([-1.0, -1.0])
    assert coalition_value(model, row, []) == pytest.approx(0.65, abs=1e-15)
    assert coalition_value(model, row, [0]) == pytest.approx(2.0, abs=1e-15)
    # only f1 fixed: root descends both ways, right branch follows the row
    assert coalition_value(model, row, [1]) == pytest.approx(0.4 * 2.0 + 0.6 * -1.0, abs=1e-15)
    assert coalition_value(model, row, [0, 1]) == pytest.approx(2.0, abs=1e-15)


# ------------------------------------------------------ oracle agreement sweep


def _random_fixture(rng, kind: str):
    n = int(rng.integers(40, 80))
    n_num = int(rng.integers(2, 6))
    numeric = {f"n{i}": rng.integers(0, 5, n).astype(float) for i in range(n_num)}
    categorical = {"c0": (rng.integers(0, 3, n), ["a", "b", "c"])}
    y = rng.integers(0, 2, n)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    ds = build_dataset(numeric=numeric, categorical=categorical, labels=y)
    x, kinds, names = design_matrix(ds)
    if kind == "forest":
        params = ForestParams(
            n_trees=int(rng.integers(1, 6)),
            max_depth=int(rng.integers(2, 5)),
            min_samples_leaf=2,
        )
        model = fit_forest(ds, params, seed=int(rng.integers(0, 1000)))
    else:
        params = BoostParams(
            n_rounds=int(rng.integers(1, 6)),
            max_depth=int(rng.integers(2, 5)),
            eta=0.3,
            min_child_weight=0.0,
        )
        model = fit_boosted_matrix(
            x, y.astype(float), kinds, names, params, seed=int(rng.integers(0, 1000))
        )
    n_feat = len(names)
    rows = np.column_stack(
        [rng.integers(-1, 7, 50).astype(float) for _ in range(n_feat - 1)]
        + [rng.integers(0, 3, 50).astype(float)]
    )
    return model, rows


def test_tree_shap_matches_bruteforce_on_random_models():
    rng = np.random.default_rng(23)
    fixtures = 0
    for trial in range(22):
        kind = "forest" if trial % 2 == 0 else "boosted"
        model, rows = _random_fixture(rng, kind)
        attr = tree_shap(model, rows)
        out = model_output(model, rows)
        for i in range(rows.shape[0]):
            assert attr.base_value + attr.phi[i].sum() == pytest.approx(out[i], abs=1e-9)
        for i in range(0, rows.shape[0], 7):  # brute force on a stride of rows
            phi, base = shapley_bruteforce(model, rows[i])
            assert np.abs(attr.phi[i] - phi).max() < 1e-9
            assert abs(attr.base_value - base) < 1e-9
        fixtures += 1
    assert fixtures >= 20


def test_tree_shap_additive_over_trees():
    rng = np.random.default_rng(4)
    model, rows = _random_fixture(rng, "forest")
    if len(model.trees) < 2:
        model.trees = model.trees * 2
    single = []
    for t in model.trees:
        sub = ForestModel(
            trees=[t],
            params=model.params,
            feature_names=model.feature_names,
            feature_kinds=model.feature_kinds,
            bootstrap_n=model.bootstrap_n,
            seed=model.seed,
        )
        single.append(tree_shap(sub, rows).phi)
    whole = tree_shap(model, rows)
    assert np.allclose(whole.phi, np.mean(single, axis=0), atol=1e-12)


def test_boosted_attribution_in_margin_space():
    rng = np.random.default_rng(9)
    model, rows = _random_fixture(rng, "boosted")
    attr = tree_shap(model, rows)
    assert attr.output_space == OUTPUT_MARGIN
    margins = predict_margin(model, rows)
    recon = attr.base_value + attr.phi.sum(axis=1)
    assert np.allclose(recon, margins, atol=1e-9)


def test_forest_attribution_in_probability_space():
    rng = np.random.default_rng(10)
    model, rows = _random_fixture(rng, "forest")
    attr = tree_shap(model, rows)
    assert attr.output_space == OUTPUT_PROBABILITY
    proba = predict_proba_forest(model, rows)
    assert np.allclose(attr.base_value + attr.phi.sum(axis=1), proba, atol=1e-9)


# ------------------------------------------------------------------ edge cases


def test_bruteforce_feature_guard():
    bld = TreeBuilder(track_class_counts=True)
    bld.add_node(5.0, 0.5, (0.0, 0.0))
    model = ForestModel(
        trees=[bld.build()],
        params=ForestParams(n_trees=1),
        feature_names=[f"f{i}" for i in range(21)],
        feature_kinds=[NUMERIC] * 21,
        bootstrap_n=5,
        seed=0,
    )
    with pytest.raises(ValidationError, match="20"):
        shapley_bruteforce(model, np.zeros(21))


def test_single_leaf_tree_attributes_nothing():
    bld = TreeBuilder(track_class_counts=True)
    bld.add_node(5.0, 0.7, (0.0, 0.0))
    model = ForestModel(
        trees=[bld.build()],
        params=ForestParams(n_trees=1),
        feature_names=["a", "b"],
        feature_kinds=[NUMERIC, NUMERIC],
        bootstrap_n=5,
        seed=0,
    )
    attr = tree_shap(model, np.zeros((3, 2)))
    assert attr.phi.tolist() == [[0.0, 0.0]] * 3
    assert attr.base_value == 0.7


def test_tree_shap_rejects_bad_rows():
    model = _stump_forest()
    with pytest.raises(ValidationError):
        tree_shap(model, np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        tree_shap(model, np.array([[np.nan, 0.0]]))


def test_unsupported_model_type():
    with pytest.raises(ValidationError):
        tree_shap(object(), np.zeros((1, 2)))
    with pytest.raises(ValidationError):
        model_output(42, np.zeros((1, 2)))


# ------------------------------------------------------------ global rollup


def test_global_shap_importance_mean_abs_normalized():
    from icui.attribution import AttributionMatrix

    attr = AttributionMatrix(
        phi=np.array([[1.0, -1.0], [3.0, 1.0]]),
        base_value=0.0,
        output_space=OUTPUT_MARGIN,
        feature_names=["a", "b"],
    )
    prof = global_shap_importance(attr)
    assert prof.normalized
    assert prof.scores.tolist() == [2.0 / 3.0, 1.0 / 3.0]

    zero = AttributionMatrix(
        phi=np.zeros((4, 2)),
        base_value=0.0,
        output_space=OUTPUT_MARGIN,
        feature_names=["a", "b"],
    )
    zprof = global_shap_importance(zero)
    assert not zprof.normalized
    assert zprof.scores.tolist() == [0.0, 0.0]

    empty = AttributionMatrix(
        phi=np.zeros((0, 2)), base_value=0.0, output_space=OUTPUT_MARGIN, feature_names=["a", "b"]
    )
    with pytest.raises(ValidationError):
        global_shap_importance(empty)


# ----------------------------------------------------------------- csv export


def test_attribution_csv_header_and_golden(tmp_path):
    model = _depth2_forest()
    attr = tree_shap(model, np.array([[-1.0, -1.0], [1.0, 1.0]]))
    out = tmp_path / "attr.csv"
    attribution_to_csv(attr, str(out))
    text = out.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "row_id,base_value,f0,f1"
    assert len(lines) == 3
    golden = ASSETS / "attribution_depth2.csv"
    assert text == golden.read_text()
