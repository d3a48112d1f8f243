from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import TreeBuilder, build_dataset, model_to_dict, validate_tree
from forest_oracle import _fit_tree_matrix
from icui.data import CATEGORICAL, NUMERIC, design_matrix, take_rows
from icui.errors import ValidationError
from icui.forest import (
    ForestModel,
    ForestParams,
    _gini2,
    _mean_importance,
    _split_gain,
    fit_forest,
    forest_importance,
    gini,
    impurity_decrease,
    predict_proba_forest,
)
from icui.rng import make_rng
from icui.trees import LEAF, leaf_ids, predict_value


def fit_tree(rows, ds, params, rng):
    """One forest tree on the row multiset `rows`; duplicates act as weights."""
    x, kinds, _ = design_matrix(ds)
    weights = np.bincount(np.asarray(rows, dtype=np.int64), minlength=ds.n_rows).astype(np.float64)
    return _fit_tree_matrix(x, ds.labels.astype(np.float64), kinds, params, rng, weights)


@dataclass
class RootSplit:
    feature: int
    threshold: float
    categorical: bool
    gain: float
    left_counts: tuple[float, float]
    right_counts: tuple[float, float]


def root_split(rows, ds, min_samples_leaf=1):
    """The split a forest tree makes at a node holding the row multiset `rows`.

    Fits a depth-1 tree with every feature a candidate (no mtry draw), so its
    root split is the node's best split, or None when the root stays a leaf.
    """
    params = ForestParams(max_depth=1, min_samples_leaf=min_samples_leaf, mtry=len(ds.names), bootstrap=False)
    tree = fit_tree(rows, ds, params, rng=None)
    if tree.feature[0] == LEAF:
        return None
    return RootSplit(
        feature=int(tree.feature[0]),
        threshold=float(tree.threshold[0]),
        categorical=bool(tree.categorical[0]),
        gain=float(tree.gain[0]),
        left_counts=tuple(tree.class_counts[1].tolist()),
        right_counts=tuple(tree.class_counts[2].tolist()),
    )


# ---------------------------------------------------------------- tree plumbing


def _stump(feature=0, threshold=0.5, categorical=False, values=(0.25, 0.75)):
    b = TreeBuilder(track_class_counts=True)
    root = b.add_node(8.0, 0.5, (4.0, 4.0))
    b.set_split(root, feature, threshold, categorical, 0.125)
    lo = b.add_node(4.0, values[0], (3.0, 1.0))
    hi = b.add_node(4.0, values[1], (1.0, 3.0))
    b.link(root, lo, hi)
    return b.build()


def test_route_left_numeric_boundary_goes_left():
    t = _stump(threshold=2.0)
    x = np.array([[1.0], [2.0], [2.5]])
    assert (leaf_ids(t, x) == t.left[0]).tolist() == [True, True, False]


def test_route_left_categorical_is_equality():
    t = _stump(threshold=2.0, categorical=True)
    x = np.array([[2.0], [1.0], [3.0]])
    assert (leaf_ids(t, x) == t.left[0]).tolist() == [True, False, False]


def test_leaf_ids_and_predict_value():
    t = _stump(threshold=0.0)
    x = np.array([[-1.0], [0.0], [1.0]])
    assert leaf_ids(t, x).tolist() == [1, 1, 2]
    assert predict_value(t, x).tolist() == [0.25, 0.25, 0.75]


def test_validate_tree_rejects_weight_leak():
    t = _stump()
    t.n_samples[1] = 3.5
    with pytest.raises(ValidationError, match="sum to parent"):
        validate_tree(t)


def test_validate_tree_rejects_leaf_with_children():
    t = _stump()
    t.left[1] = 2
    with pytest.raises(ValidationError, match="has children"):
        validate_tree(t)


# ----------------------------------------------------------- impurity formulas


def test_gini_worked_examples():
    assert gini([1, 3]) == 0.375
    assert gini([2, 2]) == 0.5
    assert gini([4, 0]) == 0.0
    assert gini([0, 7]) == 0.0


def test_gini_validation():
    with pytest.raises(ValidationError):
        gini([1, 2, 3])
    with pytest.raises(ValidationError):
        gini([0, 0])
    with pytest.raises(ValidationError):
        gini([-1, 2])


def test_impurity_decrease_worked_example():
    assert impurity_decrease([3, 1], [2, 0], [1, 1]) == 0.125


def test_impurity_decrease_validation():
    with pytest.raises(ValidationError, match="sum to parent"):
        impurity_decrease([3, 1], [2, 0], [2, 1])
    with pytest.raises(ValidationError, match="non-empty"):
        impurity_decrease([4, 0], [4, 0], [0, 0])


def test_split_gain_helper_equals_impurity_decrease():
    # the forest's unchecked scalar path, which `impurity_decrease` returns,
    # stores the same float as the textbook formula over `gini`
    rng = np.random.default_rng(11)
    for _ in range(2000):
        l0, l1, r0, r1 = (float(v) for v in rng.integers(0, 60, size=4))
        if l0 + l1 == 0 or r0 + r1 == 0:
            continue
        parent = (l0 + r0, l1 + r1)
        n, n_l, n_r = parent[0] + parent[1], l0 + l1, r0 + r1
        expect = gini(parent) - (n_l / n * gini((l0, l1)) + n_r / n * gini((r0, r1)))
        assert impurity_decrease(parent, (l0, l1), (r0, r1)) == expect
        assert _split_gain(l0, l1, r0, r1) == expect
        assert _gini2(*parent) == gini(parent)


# ------------------------------------------------------- split search (oracle)


def _oracle_best_split(rows, ds, msl):
    """Exhaustive candidate enumeration, ties kept in scan order
    (ascending feature, then ascending threshold / code)."""
    x, kinds, _ = design_matrix(ds)
    uniq, counts = np.unique(np.asarray(rows, dtype=np.int64), return_counts=True)
    xs = x[uniq]
    y = ds.labels[uniq].astype(np.float64)
    w = counts.astype(np.float64)
    parent = (float(w[y == 0].sum()), float(w[y == 1].sum()))
    if parent[0] == 0.0 or parent[1] == 0.0 or w.sum() < 2 * msl:
        return None
    best = None
    for f in range(xs.shape[1]):
        col = xs[:, f]
        cat = kinds[f] == CATEGORICAL
        if cat:
            cands = sorted(set(col.tolist()))
        else:
            vals = sorted(set(col.tolist()))
            cands = [(a + b) / 2.0 for a, b in zip(vals, vals[1:])]
        for thr in cands:
            m = (col == thr) if cat else (col <= thr)
            n_l = float(w[m].sum())
            n_r = float(w[~m].sum())
            if n_l < msl or n_r < msl or n_l == 0.0 or n_r == 0.0:
                continue
            left = (float(w[m & (y == 0)].sum()), float(w[m & (y == 1)].sum()))
            right = (parent[0] - left[0], parent[1] - left[1])
            gain = impurity_decrease(parent, left, right)
            if gain > 0.0 and (best is None or gain > best[0]):
                best = (gain, f, thr, cat, left, right)
    return best


def _random_dataset(rng, n):
    numeric = {
        "n0": rng.integers(0, 6, n).astype(float),
        "n1": rng.integers(0, 4, n).astype(float),
    }
    categorical = {"c0": (rng.integers(0, 4, n), ["a", "b", "c", "d"])}
    labels = rng.integers(0, 2, n)
    return build_dataset(numeric=numeric, categorical=categorical, labels=labels)


def test_best_split_matches_enumeration_oracle():
    rng = np.random.default_rng(11)
    checked = 0
    for trial in range(60):
        n = int(rng.integers(5, 40))
        ds = _random_dataset(rng, n)
        rows = rng.integers(0, n, size=int(rng.integers(n // 2 + 2, 2 * n + 1)))
        msl = int(rng.integers(1, 4))
        got = root_split(rows, ds, min_samples_leaf=msl)
        want = _oracle_best_split(rows, ds, float(msl))
        if want is None:
            assert got is None
            continue
        gain, f, thr, cat, left, right = want
        assert got is not None
        assert got.feature == f
        assert got.threshold == thr
        assert got.categorical == cat
        assert got.gain == gain
        assert got.left_counts == left
        assert got.right_counts == right
        checked += 1
    assert checked >= 30


def test_best_split_tie_prefers_lower_feature():
    ds = build_dataset(
        numeric={"a": [1.0, 2.0, 3.0, 4.0], "b": [1.0, 2.0, 3.0, 4.0]},
        labels=[0, 0, 1, 1],
    )
    cand = root_split(np.arange(4), ds)
    assert cand.feature == 0
    assert cand.threshold == 2.5
    assert cand.gain == 0.5


def test_best_split_tie_prefers_lower_threshold():
    ds = build_dataset(numeric={"a": [1.0, 2.0, 3.0]}, labels=[0, 1, 0])
    cand = root_split(np.arange(3), ds)
    assert cand.threshold == 1.5


def test_best_split_tie_prefers_lower_code():
    ds = build_dataset(
        categorical={"c": ([0, 1], ["x", "y"])},
        labels=[0, 1],
    )
    cand = root_split(np.arange(2), ds)
    assert cand.categorical
    assert cand.threshold == 0.0
    assert cand.gain == 0.5


def test_best_split_invariant_under_row_order():
    rng = np.random.default_rng(3)
    ds = _random_dataset(rng, 25)
    a = root_split(np.arange(25), ds, min_samples_leaf=2)
    perm = rng.permutation(25)
    b = root_split(np.arange(25), take_rows(ds, perm), min_samples_leaf=2)
    assert (a.feature, a.threshold, a.gain) == (b.feature, b.threshold, b.gain)


def test_best_split_pure_node_returns_none():
    ds = build_dataset(numeric={"a": [1.0, 2.0, 3.0]}, labels=[1, 1, 1])
    assert root_split(np.arange(3), ds) is None


def test_best_split_respects_min_samples_leaf():
    # only boundary 4.5 leaves 4 on each side
    ds = build_dataset(
        numeric={"a": [1.0, 2, 3, 4, 5, 6, 7, 8]},
        labels=[0, 0, 0, 0, 1, 1, 1, 1],
    )
    cand = root_split(np.arange(8), ds, min_samples_leaf=4)
    assert cand.threshold == 4.5
    ds2 = build_dataset(
        numeric={"a": [1.0, 2, 3, 4, 5, 6, 7, 8]},
        labels=[0, 0, 0, 1, 0, 1, 1, 1],
    )
    cand2 = root_split(np.arange(8), ds2, min_samples_leaf=4)
    assert cand2 is not None and cand2.threshold == 4.5


# ------------------------------------------------------------------ tree fits


def _fixture_dataset():
    return build_dataset(
        numeric={
            "f0": [1.0, 2, 3, 4, 5, 6, 7, 8],
            "f1": [7.0, 8, 9, 7, 9, 8, 1, 7],
        },
        labels=[0, 0, 0, 0, 1, 1, 0, 1],
    )


def test_fit_tree_depth2_fixture_exact_layout():
    ds = _fixture_dataset()
    params = ForestParams(min_samples_leaf=1, bootstrap=False)
    tree = fit_tree(np.arange(8), ds, params, make_rng(0, "tree", 0))

    assert tree.feature.tolist() == [0, LEAF, 1, LEAF, LEAF]
    assert tree.threshold[0] == 4.5
    assert tree.threshold[2] == 4.0
    assert tree.left.tolist() == [1, LEAF, 3, LEAF, LEAF]
    assert tree.right.tolist() == [2, LEAF, 4, LEAF, LEAF]
    assert tree.n_samples.tolist() == [8.0, 4.0, 4.0, 1.0, 3.0]
    assert tree.value.tolist() == [0.375, 0.0, 0.75, 0.0, 1.0]
    assert tree.gain.tolist() == [0.28125, 0.0, 0.375, 0.0, 0.0]
    assert tree.class_counts.tolist() == [
        [5.0, 3.0],
        [4.0, 0.0],
        [1.0, 3.0],
        [1.0, 0.0],
        [0.0, 3.0],
    ]
    validate_tree(tree)


def test_fit_tree_max_depth_zero_like_stump():
    ds = _fixture_dataset()
    params = ForestParams(max_depth=1, min_samples_leaf=1, bootstrap=False)
    tree = fit_tree(np.arange(8), ds, params, make_rng(0, "tree", 0))
    assert tree.n_nodes == 3
    assert tree.feature[0] == 0 and tree.feature[1] == LEAF and tree.feature[2] == LEAF


def test_fit_tree_stored_gain_is_canonical_recompute():
    rng = np.random.default_rng(7)
    ds = _random_dataset(rng, 80)
    params = ForestParams(min_samples_leaf=2, bootstrap=False)
    tree = fit_tree(np.arange(80), ds, params, make_rng(1, "tree", 0))
    internal = np.flatnonzero(tree.feature != LEAF)
    assert internal.size > 0
    for node in internal:
        lo, hi = tree.left[node], tree.right[node]
        expect = impurity_decrease(
            tuple(tree.class_counts[node]),
            tuple(tree.class_counts[lo]),
            tuple(tree.class_counts[hi]),
        )
        assert tree.gain[node] == expect


def test_fit_tree_duplicated_rows_act_as_weights():
    ds = _fixture_dataset()
    params = ForestParams(min_samples_leaf=1, bootstrap=False)
    rows = np.repeat(np.arange(8), 3)
    tree = fit_tree(rows, ds, params, make_rng(0, "tree", 0))
    assert tree.n_samples[0] == 24.0
    assert tree.feature[0] == 0 and tree.threshold[0] == 4.5
    assert tree.gain[0] == 0.28125


# ------------------------------------------------------------- forest behavior


def _training_dataset(n=150, seed=9):
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(n)
    x1 = rng.standard_normal(n)
    noise = rng.standard_normal(n)
    y = (x0 + 0.5 * x1 + 0.3 * noise > 0).astype(int)
    return build_dataset(numeric={"x0": x0, "x1": x1, "junk": noise}, labels=y)


def test_fit_forest_deterministic_and_seed_sensitive():
    ds = _training_dataset()
    params = ForestParams(n_trees=6, max_depth=4, min_samples_leaf=2)
    a = fit_forest(ds, params, seed=5)
    b = fit_forest(ds, params, seed=5)
    c = fit_forest(ds, params, seed=6)
    dump = lambda m: json.dumps(model_to_dict(m, "forest"), sort_keys=True)
    assert dump(a) == dump(b)
    assert dump(a) != dump(c)


def test_fit_forest_leaf_weights_respect_min_samples_leaf():
    ds = _training_dataset()
    params = ForestParams(n_trees=5, min_samples_leaf=5)
    model = fit_forest(ds, params, seed=1)
    for tree in model.trees:
        validate_tree(tree)
        leaves = tree.feature == LEAF
        assert (tree.n_samples[leaves] >= 5).all()


def test_fit_forest_max_depth_bound():
    ds = _training_dataset()
    model = fit_forest(ds, ForestParams(n_trees=3, max_depth=2, min_samples_leaf=1), seed=0)
    for tree in model.trees:
        depth = {0: 0}
        for node in range(tree.n_nodes):
            if tree.feature[node] != LEAF:
                for child in (tree.left[node], tree.right[node]):
                    depth[int(child)] = depth[node] + 1
        assert max(depth.values()) <= 2


def test_fit_forest_no_bootstrap_trees_identical():
    ds = _training_dataset(n=60)
    params = ForestParams(n_trees=3, bootstrap=False, mtry=3, min_samples_leaf=2)
    model = fit_forest(ds, params, seed=4)
    dumps = {json.dumps(t.feature.tolist() + t.threshold.tolist()) for t in model.trees}
    assert len(dumps) == 1
    assert model.trees[0].n_samples[0] == 60.0


def test_predict_proba_forest_is_mean_of_tree_values():
    ds = _training_dataset(n=80)
    model = fit_forest(ds, ForestParams(n_trees=4, max_depth=3), seed=3)
    x, _, _ = design_matrix(ds)
    p = predict_proba_forest(model, x)
    manual = np.mean([predict_value(t, x) for t in model.trees], axis=0)
    assert np.array_equal(p, manual)
    assert ((p >= 0) & (p <= 1)).all()


def test_predict_proba_forest_rejects_bad_matrix():
    ds = _training_dataset(n=40)
    model = fit_forest(ds, ForestParams(n_trees=2, max_depth=2), seed=0)
    with pytest.raises(ValidationError):
        predict_proba_forest(model, np.zeros((4, 2)))
    with pytest.raises(ValidationError):
        predict_proba_forest(model, np.full((4, 3), np.nan))


def test_fit_forest_single_class_labels_gives_constant_trees():
    ds = build_dataset(
        numeric={"a": np.arange(10.0)}, labels=np.zeros(10, dtype=int)
    )
    model = fit_forest(ds, ForestParams(n_trees=2), seed=0)
    x, _, _ = design_matrix(ds)
    assert predict_proba_forest(model, x).tolist() == [0.0] * 10


def test_fit_forest_validation():
    ds = _training_dataset(n=20)
    with pytest.raises(ValidationError):
        fit_forest(ds, ForestParams(n_trees=0), seed=0)
    no_labels = build_dataset(numeric={"a": [1.0, 2.0]})
    with pytest.raises(ValidationError):
        fit_forest(no_labels, ForestParams(n_trees=1), seed=0)


# ------------------------------------------------------------------ importance


def _hand_tree_depth2():
    b = TreeBuilder(track_class_counts=True)
    root = b.add_node(8.0, 0.375, (5.0, 3.0))
    b.set_split(root, 0, 4.5, False, 0.28125)
    lo = b.add_node(4.0, 0.0, (4.0, 0.0))
    hi = b.add_node(4.0, 0.75, (1.0, 3.0))
    b.link(root, lo, hi)
    b.set_split(hi, 1, 4.0, False, 0.375)
    hlo = b.add_node(1.0, 0.0, (1.0, 0.0))
    hhi = b.add_node(3.0, 1.0, (0.0, 3.0))
    b.link(hi, hlo, hhi)
    return b.build()


def _hand_tree_stump():
    b = TreeBuilder(track_class_counts=True)
    root = b.add_node(8.0, 0.5, (4.0, 4.0))
    b.set_split(root, 0, 2.5, False, 0.125)
    lo = b.add_node(4.0, 0.25, (3.0, 1.0))
    hi = b.add_node(4.0, 0.75, (1.0, 3.0))
    b.link(root, lo, hi)
    return b.build()


def _hand_model():
    return ForestModel(
        trees=[_hand_tree_depth2(), _hand_tree_stump()],
        params=ForestParams(n_trees=2),
        feature_names=["f0", "f1"],
        feature_kinds=[NUMERIC, NUMERIC],
        bootstrap_n=8,
        seed=0,
    )


def test_forest_importance_two_tree_fixture_exact():
    raw = _mean_importance(_hand_model())
    # tree1: f0 (8/8)*0.28125, f1 (4/8)*0.375; tree2: f0 (8/8)*0.125
    assert raw.tolist() == [0.203125, 0.09375]


def test_forest_importance_normalized_sums_to_one():
    prof = forest_importance(_hand_model())
    assert prof.normalized
    assert prof.scores.sum() == pytest.approx(1.0, abs=1e-12)
    assert prof.scores[0] == pytest.approx(13 / 19, abs=1e-12)
    assert prof.scores[1] == pytest.approx(6 / 19, abs=1e-12)


def test_forest_importance_all_constant_features_zero_unnormalized():
    ds = build_dataset(
        numeric={"a": np.ones(12), "b": np.zeros(12)},
        labels=[0, 1] * 6,
    )
    model = fit_forest(ds, ForestParams(n_trees=3), seed=0)
    prof = forest_importance(model)
    assert prof.scores.tolist() == [0.0, 0.0]
    assert not prof.normalized


@pytest.mark.parametrize(
    "field, value",
    [("n_trees", 0), ("min_samples_leaf", 0), ("min_samples_leaf", -3), ("mtry", 0), ("max_depth", -1)],
)
def test_forest_params_reject_out_of_range_values(field, value):
    with pytest.raises(ValidationError, match=field):
        ForestParams(**{field: value})


def test_forest_params_accept_boundary_values():
    ForestParams(min_samples_leaf=1, mtry=1, max_depth=0)
    ForestParams(mtry=None, max_depth=None)
