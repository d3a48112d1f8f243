"""The level-wise forest grower against the breadth-first one-tree oracle.

`fit_forest` grows all trees of a batch together, one depth at a time.
Every array of every tree must equal, with np.array_equal and the same
dtype, the tree tests/forest_oracle.py grows alone, breadth-first, from the
same stream (seed, "tree", t).
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import build_dataset
from forest_oracle import _fit_tree_matrix
from icui import forest, split
from icui.data import design_matrix
from icui.forest import ForestParams, fit_forest
from icui.rng import make_rng
from icui.trees import LEAF
from split_oracle import node_block

FIELDS = (
    "feature", "threshold", "categorical", "left", "right", "n_samples", "value", "gain", "class_counts",
)


def _table(n=140, seed=5):
    """Tied numeric columns, a constant column and two categoricals, one of them signal."""
    rng = np.random.default_rng(seed)
    a = np.round(rng.normal(size=n), 1)
    b = np.round(rng.normal(size=n) * 2.0)
    c = np.full(n, 0.75)
    d = rng.normal(size=n)
    g0 = rng.integers(0, 3, n)
    g1 = rng.integers(0, 5, n)
    logit = 1.1 * a - 0.5 * b + 1.2 * (g0 == 2) - 0.6 * (g1 == 1)
    labels = (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(int)
    return build_dataset(
        numeric={"a": a, "b": b, "c": c, "d": d},
        categorical={"g0": (g0, ["x", "y", "z"]), "g1": (g1, ["p", "q", "r", "s", "t"])},
        labels=labels,
        column_order=["g0", "a", "c", "b", "g1", "d"],
    )


def _oracle_forest(ds, params, seed):
    """fit_forest's trees as the one-tree grower fits them, tree by tree."""
    x, kinds, _ = design_matrix(ds)
    y = ds.labels.astype(np.float64)
    n = ds.n_rows
    trees = []
    for t in range(params.n_trees):
        rng = make_rng(seed, "tree", t)
        if params.bootstrap:
            weights = np.bincount(rng.integers(0, n, size=n), minlength=n).astype(np.float64)
        else:
            weights = np.ones(n, dtype=np.float64)
        trees.append(_fit_tree_matrix(x, y, kinds, params, rng, weights))
    return trees


def _assert_same_forest(ds, params, seed):
    got = fit_forest(ds, params, seed).trees
    want = _oracle_forest(ds, params, seed)
    assert len(got) == len(want)
    for t, (g, w) in enumerate(zip(got, want)):
        for name in FIELDS:
            a, b = getattr(g, name), getattr(w, name)
            assert a.dtype == b.dtype, (t, name)
            assert np.array_equal(a, b), (t, name)
    return want


@pytest.mark.parametrize(
    "params",
    [
        ForestParams(n_trees=6, mtry=1, min_samples_leaf=1),
        ForestParams(n_trees=4, mtry=6, min_samples_leaf=1),
        ForestParams(n_trees=4, mtry=50, min_samples_leaf=5),
        ForestParams(n_trees=3, mtry=2, bootstrap=False, min_samples_leaf=1),
        ForestParams(n_trees=5, max_depth=0),
        ForestParams(n_trees=5, max_depth=3, min_samples_leaf=1),
        ForestParams(n_trees=5, max_depth=3, min_samples_leaf=5, mtry=3),
        ForestParams(n_trees=7),
    ],
    ids=["mtry1", "mtry-all", "mtry-over", "no-bootstrap", "depth0", "depth3", "depth3-msl5", "defaults"],
)
def test_level_wise_forest_equals_breadth_first_oracle(params):
    for seed in (0, 3):
        _assert_same_forest(_table(), params, seed)


def test_mtry1_nodes_that_draw_a_categorical_feature_split_on_it():
    trees = _assert_same_forest(_table(), ForestParams(n_trees=6, mtry=1, min_samples_leaf=1), 2)
    assert sum(int(t.categorical.sum()) for t in trees) > 0
    assert sum(int((~t.categorical & (t.feature != LEAF)).sum()) for t in trees) > 0


def test_trees_that_finish_at_different_depths():
    trees = _assert_same_forest(_table(), ForestParams(n_trees=8, min_samples_leaf=2), 4)
    assert len({t.n_nodes for t in trees}) > 3


def test_constant_column_never_splits():
    trees = _assert_same_forest(_table(), ForestParams(n_trees=6, mtry=6, min_samples_leaf=1), 1)
    assert not any((t.feature == 2).any() for t in trees)  # column "c"


@pytest.mark.parametrize("step_cells", [1, 300, 1 << 14])
def test_batches_and_steps_of_any_size(monkeypatch, step_cells):
    """Eleven trees in batches of eight and three; steps of one node, of a few, or of a whole depth."""
    monkeypatch.setattr(forest, "_BATCH_ROWS", 1)
    monkeypatch.setattr(forest, "_STEP_CELLS", step_cells)
    scan = split.scan
    steps = []

    def recording_scan(x, block, starts, num, *args, **kwargs):
        steps.append((starts.size, block.shape[1] * max(1, num.shape[0])))  # segments, cells
        return scan(x, block, starts, num, *args, **kwargs)

    monkeypatch.setattr(split, "scan", recording_scan)
    _assert_same_forest(_table(), ForestParams(n_trees=11, mtry=2, min_samples_leaf=1), 6)
    assert all(segments == 1 or cells <= step_cells for segments, cells in steps)
    if step_cells == 1:
        assert max(segments for segments, _ in steps) == 1
    else:
        assert max(segments for segments, _ in steps) > 1


@pytest.mark.parametrize(
    "params",
    [ForestParams(n_trees=9, min_samples_leaf=2), ForestParams(n_trees=9, mtry=6, min_samples_leaf=5)],
    ids=["msl2", "mtry-all-msl5"],
)
def test_each_depth_with_a_splittable_node_is_one_scan(monkeypatch, params):
    """With one batch and no step cap, the fit scans every splittable node of a depth, of all trees, at once."""
    monkeypatch.setattr(forest, "_STEP_CELLS", 1 << 62)
    ds = _table()
    scan = split.scan
    per_call = []

    def recording_scan(x, block, starts, *args, **kwargs):
        per_call.append(starts.size)
        return scan(x, block, starts, *args, **kwargs)

    monkeypatch.setattr(split, "scan", recording_scan)
    trees = _assert_same_forest(ds, params, 4)
    msl = params.min_samples_leaf
    # the grower's stop tests: both classes present and room for two children
    splittable = [((t.class_counts > 0).all(axis=1) & (t.n_samples >= 2 * msl)) for t in trees]
    depths = [_depths(t) for t in trees]
    per_depth = np.bincount(np.concatenate([d[s] for d, s in zip(depths, splittable)]))
    assert per_call == per_depth[per_depth > 0].tolist()
    assert len(per_call) == per_depth.size > 3


def _depths(tree):
    """Each node's depth; a preorder parent precedes its children."""
    depth = np.zeros(tree.n_nodes, dtype=np.int64)
    for i in np.flatnonzero(tree.feature != LEAF).tolist():
        depth[[tree.left[i], tree.right[i]]] = depth[i] + 1
    return depth


def test_all_categorical_and_single_row_tables():
    rng = np.random.default_rng(8)
    n = 60
    ds = build_dataset(
        categorical={"g": (rng.integers(0, 4, n), list("abcd")), "h": (rng.integers(0, 2, n), list("ab"))},
        labels=rng.integers(0, 2, n),
    )
    _assert_same_forest(ds, ForestParams(n_trees=4, mtry=1, min_samples_leaf=1), 0)
    one = build_dataset(numeric={"a": [1.0]}, labels=[1])
    _assert_same_forest(one, ForestParams(n_trees=2), 0)


def test_every_step_block_holds_each_segments_stable_sort(monkeypatch):
    """Each segment's sorted lines are its rows as a stable sort of its own values orders them.

    The trees alone cannot show this: forest weights are integers, so the
    order of tied rows changes no sum.  The scanner's contract asks for it.
    """
    scan = split.scan
    seen = []

    def recording_scan(x, block, starts, num, cat, s1, s2, parent, score, row=None):
        ends = np.append(starts[1:], block.shape[1])
        for s, (a, b) in enumerate(zip(starts.tolist(), ends.tolist())):
            feats = num[:, s] if num.ndim == 2 else num
            assert np.array_equal(row[block[:, a:b]], node_block(x, row[block[0, a:b]], feats))
            seen.append(b - a)
        return scan(x, block, starts, num, cat, s1, s2, parent, score, row=row)

    monkeypatch.setattr(split, "scan", recording_scan)
    for params in (ForestParams(n_trees=6, min_samples_leaf=1), ForestParams(n_trees=3, mtry=6)):
        _assert_same_forest(_table(), params, 7)
    assert max(seen) > 80 and len(seen) > 100
