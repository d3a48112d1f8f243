"""Array-backed binary decision trees shared by the forest and boosting models.

Routing convention at an internal node:
  * numeric feature: row goes left iff x <= threshold
  * categorical feature: row goes left iff code == threshold (one-vs-rest)

Node ids are preorder (root 0, left subtree before right), which makes tree
construction deterministic.
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


def preorder_trees(tree, pre, parent, is_left, n_nodes, fields) -> list[Tree]:
    """One Tree per entry of `n_nodes`, from node records in any order.

    Record i is node `pre[i]`, a preorder id, of tree `tree[i]`.  Its parent
    is node `parent[i]` of the same tree (LEAF at a root), whose left child
    it is iff `is_left[i]`.  `fields` holds every other Tree array per record.
    """
    n_nodes = np.asarray(n_nodes)
    offset = np.cumsum(n_nodes) - n_nodes
    slot = offset[tree] + pre
    arrays = {"left": np.full(slot.size, LEAF), "right": np.full(slot.size, LEAF)}
    child = parent != LEAF
    at = offset[tree[child]] + parent[child]
    left = is_left[child]
    arrays["left"][at[left]] = pre[child][left]
    arrays["right"][at[~left]] = pre[child][~left]
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
        thr = tree.threshold[cur[rows]]
        cat = tree.categorical[cur[rows]]
        vals = x[rows, f]
        go_left = np.where(cat, vals == thr, vals <= thr)
        cur[rows] = np.where(go_left, tree.left[cur[rows]], tree.right[cur[rows]])


def predict_value(tree: Tree, x: np.ndarray) -> np.ndarray:
    """Leaf `value` for every row of `x`."""
    return tree.value[leaf_ids(tree, x)]
