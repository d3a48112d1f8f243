"""Test-only reference: the forest's one-tree, one-node-at-a-time grower.

`_fit_tree_matrix` grows one tree alone, breadth-first: it takes nodes from a
queue, a left child before its right sibling, and each splittable node draws
its `mtry` features from the tree's stream in that order, as
`icui.forest.fit_forest` draws them while it grows all trees of a batch one
depth at a time.  The built tree is renumbered to preorder.  `split` stands
for tests/split_oracle.py, which holds the one-node search.
"""

from __future__ import annotations

import math
from collections import deque
from functools import partial

import numpy as np

import split_oracle as split
from conftest import TreeBuilder
from icui.forest import ForestParams, _gini2, _gini_gains, _split_gain
from icui.trees import LEAF, Tree


def _fit_tree_matrix(x, y, kinds, params: ForestParams, rng, weights) -> Tree:
    """One CART tree on x, y; `weights` are per-row counts (bootstrap duplicates)."""
    n_features = x.shape[1]
    mtry = params.mtry if params.mtry is not None else math.ceil(math.sqrt(n_features))
    mtry = max(1, min(mtry, n_features))
    msl = float(params.min_samples_leaf)
    is_cat = split.categorical_mask(kinds)
    score = partial(_gini_gains, msl=msl)
    builder = TreeBuilder(track_class_counts=True)

    wy_all = weights * y
    rows0 = np.flatnonzero(weights > 0)
    queue = deque([(rows0, 0, -1, "left")])
    while queue:
        rows, depth, parent, side = queue.popleft()
        w = weights[rows]
        wy = wy_all[rows]
        pos = float(wy.sum())
        n = float(w.sum())
        node = builder.add_node(n, pos / n, (n - pos, pos))
        if parent >= 0:
            if side == "left":
                builder.left[parent] = node
            else:
                builder.right[parent] = node

        depth_ok = params.max_depth is None or depth < params.max_depth
        if not depth_ok or pos == 0.0 or pos == n or n < 2 * msl:
            continue
        if mtry < n_features:
            feats = np.sort(rng.choice(n_features, size=mtry, replace=False))
        else:
            feats = np.arange(n_features)
        hit = split.best_split(x, rows, feats, is_cat, weights, wy_all, _gini2(n - pos, pos), score)
        if hit is None:
            continue
        _, f, thr, cat = hit
        col = x[rows, f]
        go_left = (col == thr) if cat else (col <= thr)
        p_l = float(wy[go_left].sum())
        n_l = float(w[go_left].sum())
        # Recompute the stored gain in `impurity_decrease`'s arithmetic; the
        # scanner mirrors it, so the two agree bit-for-bit on integer counts.
        gain = _split_gain(n_l - p_l, p_l, (n - pos) - (n_l - p_l), pos - p_l)
        if not gain > 0.0:
            continue
        builder.set_split(node, f, thr, cat, gain)
        queue.append((rows[go_left], depth + 1, node, "left"))
        queue.append((rows[~go_left], depth + 1, node, "right"))
    return preorder(builder.build())


def preorder(tree: Tree) -> Tree:
    """`tree` with its nodes renumbered in preorder: root 0, a left subtree before the right."""
    order, todo = [], [0]
    while todo:
        node = todo.pop()
        order.append(node)
        if tree.left[node] != LEAF:
            todo += [tree.right[node], tree.left[node]]
    order = np.array(order, dtype=np.int64)
    new_id = np.empty_like(order)
    new_id[order] = np.arange(order.size)
    arrays = {k: v[order] for k, v in vars(tree).items()}
    for k in ("left", "right"):
        arrays[k] = np.where(arrays[k] == LEAF, LEAF, new_id[arrays[k]])
    return Tree(**arrays)
