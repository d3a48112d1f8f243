import numpy as np

from conftest import TreeBuilder
from icui.boost import BoostParams, fit_boosted, fit_boosted_many
from icui.data import design_matrix
from icui.forest import ForestParams, fit_forest
from icui.synth import SynthSpec, generate
from icui.trees import LEAF, goes_left, leaf_ids, level_order_trees


def _assert_preorder(tree):
    """Root 0; a split node's left child is its id + 1, its right child follows the left subtree."""
    n = tree.n_nodes
    inner = tree.feature != LEAF
    assert (tree.left[~inner] == LEAF).all() and (tree.right[~inner] == LEAF).all()
    size = np.ones(n, dtype=np.int64)
    for i in reversed(range(n)):
        if inner[i]:
            assert tree.left[i] == i + 1
            assert i + 1 < tree.right[i] < n
            size[i] += size[tree.left[i]] + size[tree.right[i]]
    assert size[0] == n  # every node is in the root's subtree
    for i in np.flatnonzero(inner):
        assert tree.right[i] == i + 1 + size[i + 1]


def test_level_order_trees_from_shuffled_levels():
    # tree 0:  0 -> (1 -> (2, 3), 4);  tree 1: one leaf;  tree 2:  0 -> (1, 2 -> (3, 4))
    tree = np.array([0, 0, 0, 0, 0, 1, 2, 2, 2, 2, 2])
    pre = np.array([0, 1, 2, 3, 4, 0, 0, 1, 2, 3, 4])
    parent = np.array([LEAF, 0, 1, 1, 0, LEAF, LEAF, 0, 0, 2, 2])  # preorder ids
    is_left = np.array([False, True, True, False, False, False, False, True, False, True, False])
    depth = np.array([0, 1, 2, 2, 1, 0, 0, 1, 1, 2, 2])
    feature = np.array([3, 1, LEAF, LEAF, LEAF, LEAF, 0, LEAF, 2, LEAF, LEAF])
    value = np.arange(11) / 10.0
    counts = np.stack((np.arange(11.0), 2 * np.arange(11.0)), axis=1)
    # the roots in tree order, then each deeper level in a random order
    rng = np.random.default_rng(0)
    order = np.concatenate([[0, 5, 6]] + [rng.permutation(np.flatnonzero(depth == d)) for d in (1, 2)])
    record = np.empty(11, dtype=np.int64)
    record[order] = np.arange(11)
    pos = {(t, p): record[i] for i, (t, p) in enumerate(zip(tree.tolist(), pre.tolist()))}
    parent_record = np.array([LEAF if p == LEAF else pos[t, p] for t, p in zip(tree[order], parent[order])])
    records = {
        "tree": tree[order],
        "parent": parent_record,
        "is_left": is_left[order],
        "feature": feature[order],
        "threshold": value[order] + 1.0,
        "categorical": (feature == 2)[order],
        "n_samples": value[order] + 2.0,
        "value": value[order],
        "gain": value[order] + 3.0,
        "class_counts": counts[order],
    }
    levels = [{k: v[a:b] for k, v in records.items()} for a, b in ((0, 3), (3, 7), (7, 11))]
    trees = level_order_trees(levels)
    assert [t.n_nodes for t in trees] == [5, 1, 5]
    assert trees[0].left.tolist() == [1, 2, LEAF, LEAF, LEAF]
    assert trees[0].right.tolist() == [4, 3, LEAF, LEAF, LEAF]
    assert trees[1].left.tolist() == trees[1].right.tolist() == [LEAF]
    assert trees[2].left.tolist() == [1, LEAF, 3, LEAF, LEAF]
    assert trees[2].right.tolist() == [2, LEAF, 4, LEAF, LEAF]
    for t, rows in zip(trees, (slice(0, 5), slice(5, 6), slice(6, 11))):
        assert t.feature.tolist() == feature[rows].tolist()
        assert t.value.tolist() == value[rows].tolist()
        assert t.threshold.tolist() == (value[rows] + 1.0).tolist()
        assert t.categorical.tolist() == (feature[rows] == 2).tolist()
        assert t.n_samples.tolist() == (value[rows] + 2.0).tolist()
        assert t.gain.tolist() == (value[rows] + 3.0).tolist()
        assert t.class_counts.tolist() == counts[rows].tolist()
        _assert_preorder(t)


def test_both_ensembles_store_trees_in_preorder():
    ds, _ = generate(SynthSpec(n_rows=160, n_features=8, n_signal=3, seed=4))
    forest = fit_forest(ds, ForestParams(n_trees=12, min_samples_leaf=3), seed=1)
    boosted = fit_boosted(ds, BoostParams(n_rounds=6, max_depth=4), seed=1)
    x, kinds, names = design_matrix(ds)
    y = ds.labels.astype(np.float64)
    batch = fit_boosted_many([(x, y, 0), (x[:90], y[:90], 1), (x[40:], y[40:], 2)], kinds, names,
                             BoostParams(n_rounds=3, max_depth=3))
    trees = forest.trees + boosted.trees + [t for m in batch for t in m.trees]
    assert any(t.n_nodes > 7 for t in forest.trees) and any(t.n_nodes > 7 for t in boosted.trees)
    for t in trees:
        _assert_preorder(t)


def test_goes_left_ties_and_one_vs_rest_codes_and_leaf_ids_agree():
    vals = np.array([0.5, 1.0, 1.5, 2.0, 3.0])
    assert goes_left(vals, 1.0, False).tolist() == [True, True, False, False, False]  # a tie goes left
    assert goes_left(vals, 2.0, True).tolist() == [False, False, False, True, False]  # one code vs the rest
    per_row = goes_left(vals, np.array([1.0, 1.0, 2.0, 2.0, 2.0]), np.array([True, False, True, False, True]))
    assert per_row.tolist() == [False, True, False, True, False]
    # root: f0 <= 1.0 ? A : (f1 == 2 ? B : C)
    bld = TreeBuilder(track_class_counts=False)
    root, a, rest, b, c = (bld.add_node(n, 0.0) for n in (10.0, 4.0, 6.0, 3.0, 3.0))
    bld.set_split(root, 0, 1.0, False, 1.0)
    bld.link(root, a, rest)
    bld.set_split(rest, 1, 2.0, True, 1.0)
    bld.link(rest, b, c)
    x = np.array([[1.0, 2.0], [0.0, 0.0], [1.5, 2.0], [1.5, 3.0], [1.5, 1.0]])
    assert leaf_ids(bld.build(), x).tolist() == [a, a, b, c, c]
