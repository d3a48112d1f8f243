from __future__ import annotations

from dataclasses import asdict, fields, is_dataclass

import numpy as np
import pytest

from icui.data import CATEGORICAL, NUMERIC, Dataset
from icui.errors import ValidationError
from icui.trees import LEAF, Tree

MODEL_FORMAT = "icui-model"
MODEL_VERSION = 1


def build_dataset(
    numeric: dict[str, list | np.ndarray] | None = None,
    categorical: dict[str, tuple[list, list[str]]] | None = None,
    labels: list | np.ndarray | None = None,
    missing: dict[str, list | np.ndarray] | None = None,
    label_name: str = "icu_death",
    column_order: list[str] | None = None,
) -> Dataset:
    """Assemble a Dataset from plain arrays.

    `categorical` maps name -> (codes, levels); `missing` maps name -> bool
    mask (defaults to all observed), whose cells become NaN.
    """
    numeric = numeric or {}
    categorical = categorical or {}
    missing = missing or {}
    names = column_order or (list(numeric) + list(categorical))
    kinds = [NUMERIC if name in numeric else CATEGORICAL for name in names]
    cols = [numeric[name] if name in numeric else categorical[name][0] for name in names]
    n_rows = len(cols[0]) if cols else 0
    x = np.empty((n_rows, len(names)), dtype=np.float64)
    for j, (name, col) in enumerate(zip(names, cols)):
        x[:, j] = col
        x[np.asarray(missing.get(name, np.zeros(n_rows)), dtype=bool), j] = np.nan
    ds = Dataset(
        names=names,
        kinds=kinds,
        x=x,
        labels=None if labels is None else np.asarray(labels, dtype=np.uint8),
        label_name=label_name if labels is not None else None,
        code_maps={name: list(levels) for name, (_, levels) in categorical.items()},
    )
    ds.check()
    return ds


def column(ds: Dataset, name: str) -> np.ndarray:
    """Column `name` of `ds.x`, a view."""
    return ds.x[:, ds.names.index(name)]


def validate_tree(tree: Tree) -> None:
    """Structural checks: child linkage, weight conservation, nonnegative gains."""
    for node in range(tree.n_nodes):
        if tree.feature[node] == LEAF:
            if tree.left[node] != LEAF or tree.right[node] != LEAF:
                raise ValidationError(f"leaf {node} has children")
            continue
        lo, hi = tree.left[node], tree.right[node]
        if not (0 < lo < tree.n_nodes and 0 < hi < tree.n_nodes):
            raise ValidationError(f"node {node}: bad child ids")
        total = tree.n_samples[lo] + tree.n_samples[hi]
        if total != tree.n_samples[node]:
            raise ValidationError(f"node {node}: child weights do not sum to parent")
        if tree.gain[node] < 0:
            raise ValidationError(f"node {node}: negative split gain")


def digest_changes(old: dict, new: dict) -> list[str]:
    """For each name whose digest differs: "changed", "added" or "removed", then the name."""
    lines = []
    for name in sorted(set(old) | set(new)):
        if name not in old:
            lines.append(f"added {name}")
        elif name not in new:
            lines.append(f"removed {name}")
        elif old[name] != new[name]:
            lines.append(f"changed {name}")
    return lines


@pytest.fixture
def tmp_csv(tmp_path):
    def write(text: str, name: str = "data.csv") -> str:
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return str(p)

    return write


class TreeBuilder:
    """Accumulates nodes and produces an immutable Tree: hand-built trees and the oracles' growers."""

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


def model_to_dict(model, kind: str) -> dict:
    """A fitted forest or boosted model as JSON-ready data: a header, then its fields."""
    out = {"format": MODEL_FORMAT, "version": MODEL_VERSION, "kind": kind}
    for f in fields(model):
        value = getattr(model, f.name)
        if f.name == "trees":
            value = [tree_to_dict(t) for t in value]
        elif is_dataclass(value):
            value = asdict(value)
        out[f.name] = value
    return out
