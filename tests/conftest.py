from __future__ import annotations

import numpy as np
import pytest

from icui.data import CATEGORICAL, NUMERIC, ColumnSpec, Dataset
from icui.errors import ValidationError
from icui.trees import LEAF, Tree


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
    mask (defaults to all observed).
    """
    numeric = numeric or {}
    categorical = categorical or {}
    missing = missing or {}
    columns = []
    values = {}
    masks = {}
    code_maps = {}
    n_rows = None
    names = column_order or (list(numeric) + list(categorical))
    for name in names:
        if name in numeric:
            arr = np.asarray(numeric[name], dtype=np.float64)
            columns.append(ColumnSpec(name, NUMERIC))
        else:
            codes, levels = categorical[name]
            arr = np.asarray(codes, dtype=np.int64)
            code_maps[name] = list(levels)
            columns.append(ColumnSpec(name, CATEGORICAL))
        values[name] = arr
        n_rows = len(arr) if n_rows is None else n_rows
        mask = missing.get(name)
        masks[name] = (
            np.zeros(n_rows, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
        )
    ds = Dataset(
        columns=columns,
        values=values,
        missing=masks,
        n_rows=n_rows or 0,
        labels=None if labels is None else np.asarray(labels, dtype=np.uint8),
        label_name=label_name if labels is not None else None,
        code_maps=code_maps,
    )
    ds.check()
    return ds



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


@pytest.fixture
def tmp_csv(tmp_path):
    def write(text: str, name: str = "data.csv") -> str:
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return str(p)

    return write
