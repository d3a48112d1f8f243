"""Array-backed binary decision trees shared by the forest and boosting models.

Routing convention at an internal node:
  * numeric feature: row goes left iff x <= threshold
  * categorical feature: row goes left iff code == threshold (one-vs-rest)

Node ids are preorder (root 0, left subtree before right), which makes tree
construction and serialization order deterministic.
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


class TreeBuilder:
    """Accumulates nodes and produces an immutable Tree."""

    def __init__(self, track_class_counts: bool) -> None:
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.categorical: list[bool] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.n_samples: list[float] = []
        self.value: list[float] = []
        self.gain: list[float] = []
        self.class_counts: list[tuple[float, float]] | None = [] if track_class_counts else None

    def add_node(self, n_samples: float, value: float, counts: tuple[float, float] | None = None) -> int:
        node = len(self.feature)
        self.feature.append(LEAF)
        self.threshold.append(0.0)
        self.categorical.append(False)
        self.left.append(LEAF)
        self.right.append(LEAF)
        self.n_samples.append(float(n_samples))
        self.value.append(float(value))
        self.gain.append(0.0)
        if self.class_counts is not None:
            self.class_counts.append((0.0, 0.0) if counts is None else counts)
        return node

    def set_split(self, node: int, feature: int, threshold: float, categorical: bool, gain: float) -> None:
        self.feature[node] = int(feature)
        self.threshold[node] = float(threshold)
        self.categorical[node] = bool(categorical)
        self.gain[node] = float(gain)

    def link(self, node: int, left: int, right: int) -> None:
        self.left[node] = left
        self.right[node] = right

    def build(self) -> Tree:
        counts = None
        if self.class_counts is not None:
            counts = np.array(self.class_counts, dtype=np.float64).reshape(len(self.feature), 2)
        return Tree(
            feature=np.array(self.feature, dtype=np.int64),
            threshold=np.array(self.threshold, dtype=np.float64),
            categorical=np.array(self.categorical, dtype=bool),
            left=np.array(self.left, dtype=np.int64),
            right=np.array(self.right, dtype=np.int64),
            n_samples=np.array(self.n_samples, dtype=np.float64),
            value=np.array(self.value, dtype=np.float64),
            gain=np.array(self.gain, dtype=np.float64),
            class_counts=counts,
        )


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


def tree_to_dict(tree: Tree) -> dict:
    out = {
        "feature": tree.feature.tolist(),
        "threshold": tree.threshold.tolist(),
        "categorical": tree.categorical.astype(int).tolist(),
        "left": tree.left.tolist(),
        "right": tree.right.tolist(),
        "n_samples": tree.n_samples.tolist(),
        "value": tree.value.tolist(),
        "gain": tree.gain.tolist(),
    }
    if tree.class_counts is not None:
        out["class_counts"] = tree.class_counts.tolist()
    return out
