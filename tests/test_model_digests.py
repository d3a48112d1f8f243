"""Model-level fixture: fitted forests and boosted models stay byte-identical.

The golden manifest runs neither boosting's row/column subsampling nor a
forest with a small `mtry`.  Each case here fits a small model on a table
with tied numeric values and categorical columns and compares the sha256 of
its `model_to_dict` JSON with tests/assets/model_digests.json.  A change that
alters fitted trees on purpose regenerates the digests with

    PYTHONPATH=src python tests/test_model_digests.py

which prints each case whose digest it changed, added or removed; the cause
goes into CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from conftest import build_dataset, digest_changes, model_to_dict
from icui.boost import (
    OBJECTIVE_SQUARED,
    BoostParams,
    fit_boosted,
    fit_boosted_matrix,
)
from icui.data import design_matrix
from icui.forest import ForestParams, fit_forest

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "assets", "model_digests.json")


def _table(n: int = 90, seed: int = 17):
    """Rounded numeric columns (many ties), one constant column, two categoricals."""
    rng = np.random.default_rng(seed)
    a = np.round(rng.normal(size=n), 1)
    b = np.round(rng.normal(size=n) * 3.0)
    c = rng.integers(0, 5, n).astype(float)
    d = np.full(n, 2.5)
    e = rng.normal(size=n)
    g0 = rng.integers(0, 3, n)
    g1 = rng.integers(0, 4, n)
    logit = 1.2 * a - 0.4 * b + 0.8 * (g0 == 1) - 0.3 * c
    labels = (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(int)
    return build_dataset(
        numeric={"a": a, "b": b, "c": c, "d": d, "e": e},
        categorical={"g0": (g0, ["x", "y", "z"]), "g1": (g1, ["p", "q", "r", "s"])},
        labels=labels,
        column_order=["a", "g0", "b", "c", "d", "g1", "e"],
    )


def _boosted_subsampled():
    params = BoostParams(
        n_rounds=6, max_depth=3, eta=0.3, reg_lambda=0.0, min_child_weight=0.0,
        row_subsample=0.7, col_subsample=0.5,
    )
    return model_to_dict(fit_boosted(_table(), params, seed=3), "boosted")


def _boosted_gamma():
    params = BoostParams(n_rounds=5, max_depth=4, eta=0.2, gamma=0.05, row_subsample=0.7)
    return model_to_dict(fit_boosted(_table(), params, seed=8), "boosted")


def _boosted_squared():
    ds = _table()
    x, kinds, names = design_matrix(ds)
    target = x[:, 2] * 0.5 + x[:, 0]
    params = BoostParams(n_rounds=4, max_depth=3, eta=0.5, col_subsample=0.5, min_child_weight=0.0)
    model = fit_boosted_matrix(
        np.delete(x, 2, axis=1), target, kinds[:2] + kinds[3:], names[:2] + names[3:],
        params, seed=5, objective=OBJECTIVE_SQUARED,
    )
    return model_to_dict(model, "boosted")


def _boosted_many_codes():
    """A 12-code categorical column: each node's code totals sum more than 8 bins."""
    rng = np.random.default_rng(23)
    n = 120
    g = rng.integers(0, 12, n)
    a = np.round(rng.normal(size=n), 1)
    logit = 0.9 * a + np.where(g % 3 == 0, 1.0, -0.5)
    labels = (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(int)
    ds = build_dataset(
        numeric={"a": a},
        categorical={"g": (g, [f"l{i}" for i in range(12)])},
        labels=labels,
        column_order=["g", "a"],
    )
    params = BoostParams(n_rounds=5, max_depth=3, eta=0.3, min_child_weight=0.5)
    return model_to_dict(fit_boosted(ds, params, seed=2), "boosted")


def _forest_mtry3():
    params = ForestParams(n_trees=5, min_samples_leaf=2, mtry=3)
    return model_to_dict(fit_forest(_table(), params, seed=4), "forest")


def _forest_mtry_all():
    """mtry equals the column count, so no node draws: the trees do not depend on growth order."""
    params = ForestParams(n_trees=5, min_samples_leaf=2, mtry=7)
    return model_to_dict(fit_forest(_table(), params, seed=4), "forest")


def _forest_no_bootstrap():
    params = ForestParams(n_trees=3, max_depth=5, min_samples_leaf=1, mtry=2, bootstrap=False)
    return model_to_dict(fit_forest(_table(), params, seed=9), "forest")


def _forest_mtry1_depth4():
    """One feature per node, so some nodes draw only a categorical column."""
    params = ForestParams(n_trees=4, max_depth=4, min_samples_leaf=1, mtry=1, bootstrap=False)
    return model_to_dict(fit_forest(_table(), params, seed=6), "forest")


CASES = {
    "boosted-subsampled": _boosted_subsampled,
    "boosted-gamma": _boosted_gamma,
    "boosted-many-codes": _boosted_many_codes,
    "boosted-squared": _boosted_squared,
    "forest-mtry1-depth4": _forest_mtry1_depth4,
    "forest-mtry3": _forest_mtry3,
    "forest-mtry-all": _forest_mtry_all,
    "forest-no-bootstrap": _forest_no_bootstrap,
}


def digest(name: str) -> str:
    payload = json.dumps(CASES[name](), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_fitted_model_matches_recorded_digest(name):
    with open(DIGESTS, encoding="utf-8") as fh:
        expected = json.load(fh)
    assert sorted(expected) == sorted(CASES)
    assert digest(name) == expected[name]


if __name__ == "__main__":
    digests = {name: digest(name) for name in sorted(CASES)}
    with open(DIGESTS, encoding="utf-8") as fh:
        old = json.load(fh)
    for line in digest_changes(old, digests):
        print(line)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {DIGESTS}", file=sys.stderr)
