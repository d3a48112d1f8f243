"""Array-backed binary decision trees shared by the forest and boosting models.

Routing rule at an internal node, `goes_left`, the only place a row's value
meets a split:
  * numeric feature: row goes left iff x <= threshold
  * categorical feature: row goes left iff code == threshold (one-vs-rest)

Node ids are preorder (root 0, left subtree before right).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

LEAF = -1


@dataclass
class Tree:
    feature: np.ndarray      # int64, LEAF at leaves
    threshold: np.ndarray    # float64; for categorical splits: the matched code
    categorical: np.ndarray  # bool per node
    left: np.ndarray         # int64 child id, LEAF at leaves
    right: np.ndarray
    n_samples: np.ndarray    # float64 training weight reaching the node
    value: np.ndarray        # float64 node value (class-1 fraction / leaf weight)
    gain: np.ndarray         # float64 split score at internal nodes, 0 at leaves
    class_counts: np.ndarray | None = None  # (n_nodes, 2), classification trees only

    @property
    def n_nodes(self) -> int:
        return int(self.feature.size)


def level_order_trees(levels) -> list[Tree]:
    """One Tree per root, with node ids in preorder, from node records listed depth by depth.

    levels[d] holds, as equal-length arrays, the records of the nodes at
    depth d: "tree", "parent", "is_left" and every Tree field but the child
    ids.  levels[0] holds the roots of trees 0, 1, ... in order.  Records are
    numbered through all levels in turn; below the roots, record i is a node
    of tree `tree[i]` whose parent is record `parent[i]`, and it is that
    node's left child iff `is_left[i]`.
    """
    fields = {k: np.concatenate([level[k] for level in levels]) for k in levels[0]}
    tree, parent, is_left = fields.pop("tree"), fields.pop("parent"), fields.pop("is_left")
    bounds = np.cumsum([0] + [level["tree"].size for level in levels]).tolist()
    n_trees = bounds[1]
    below_roots = list(zip(bounds[1:-1], bounds[2:]))  # each level's span of records
    size = np.ones(tree.size, dtype=np.int64)  # subtree sizes, deepest level first
    for a, b in reversed(below_roots):
        np.add.at(size, parent[a:b], size[a:b])
    pre = np.zeros(tree.size, dtype=np.int64)  # preorder id within the record's tree
    for a, b in below_roots:
        p = parent[a:b]
        # a right child comes after its parent and its left sibling's subtree
        pre[a:b] = np.where(is_left[a:b], pre[p] + 1, pre[p] + size[p] - size[a:b])
    n_nodes = size[:n_trees]
    offset = np.cumsum(n_nodes) - n_nodes
    slot = offset[tree] + pre
    arrays = {"left": np.full(slot.size, LEAF), "right": np.full(slot.size, LEAF)}
    at = slot[parent[n_trees:]]
    left = is_left[n_trees:]
    arrays["left"][at[left]] = pre[n_trees:][left]
    arrays["right"][at[~left]] = pre[n_trees:][~left]
    for k, v in fields.items():
        arrays[k] = np.empty_like(v)
        arrays[k][slot] = v
    return [
        Tree(**{k: v[o : o + m] for k, v in arrays.items()})
        for o, m in zip(offset.tolist(), n_nodes.tolist())
    ]


def _check_matrix(x, n_features: int) -> np.ndarray:
    """`x` as float64, checked to be 2-D with `n_features` finite columns."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != n_features:
        raise ValidationError(f"expected a 2D matrix with {n_features} columns")
    if not np.isfinite(x).all():
        raise ValidationError("matrix contains non-finite values")
    return x


def goes_left(vals, threshold, categorical):
    """Does each value go to the left child of a split at `threshold`?  Arguments broadcast."""
    return np.where(categorical, vals == threshold, vals <= threshold)


def leaf_ids(tree: Tree, x: np.ndarray) -> np.ndarray:
    """Leaf node id for every row of `x` (2D float64)."""
    n = x.shape[0]
    cur = np.zeros(n, dtype=np.int64)
    while True:
        feat = tree.feature[cur]
        todo = feat != LEAF
        if not todo.any():
            return cur
        rows = np.flatnonzero(todo)
        f = feat[rows]
        at = cur[rows]
        left = goes_left(x[rows, f], tree.threshold[at], tree.categorical[at])
        cur[rows] = np.where(left, tree.left[at], tree.right[at])


def predict_value(tree: Tree, x: np.ndarray) -> np.ndarray:
    """Leaf `value` for every row of `x`."""
    return tree.value[leaf_ids(tree, x)]
