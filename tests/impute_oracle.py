"""Test-only reference for nested-CV imputer selection.

A copy of the selection loop as it was before each cell shared its fits:
every algorithm of every cell is fitted on its own, and a3 refits both a1
and a2.  `select_imputer` must return the same score rows whenever the
boosted imputers do not subsample (the only case in which the seed matters).
"""

from __future__ import annotations

import numpy as np

from icui.data import NUMERIC, split_folds, take_rows
from icui.impute import (
    ALGORITHMS,
    ColumnImputer,
    ImputeParams,
    ScoreRow,
    fit_column,
)
from icui.rng import stable_seed


def _a0_entry(ds, target, note=None) -> ColumnImputer:
    """The a0 entry: median (lower of two middles) or most frequent code (lowest on ties)."""
    kind = ds.column(target).kind
    observed = ds.values[target][~ds.missing[target]]
    if kind == NUMERIC:
        fallback = float(np.sort(observed)[(observed.size - 1) // 2])
    else:
        fallback = float(np.argmax(np.bincount(observed.astype(np.int64))))
    return ColumnImputer(column=target, kind=kind, algorithm="a0", fallback=fallback, note=note)


def _fit_algorithm3(ds, target, boost, min_rows, seed) -> ColumnImputer:
    a1 = fit_column(ds, target, "a1", boost, min_rows, seed)
    a2 = fit_column(ds, target, "a2", boost, min_rows, seed)
    if a1.algorithm == "a0" and a2.algorithm == "a0":
        return _a0_entry(ds, target, note=a1.note)
    return ColumnImputer(
        column=target,
        kind=a1.kind,
        algorithm="a3",
        fallback=a1.fallback,
        predictor=a1.predictor,
        predictor_grouped=a2.predictor_grouped,
        siblings=a2.siblings,
        note=a1.note or a2.note,
    )


def _fit_by_id(ds, target, algorithm, boost, min_rows, seed) -> ColumnImputer:
    if algorithm == "a0":
        return _a0_entry(ds, target)
    if algorithm in ("a1", "a2"):
        return fit_column(ds, target, algorithm, boost, min_rows, seed)
    return _fit_algorithm3(ds, target, boost, min_rows, seed)


def select_imputer_reference(ds, target, params=None) -> tuple[str, list[ScoreRow]]:
    params = params or ImputeParams()
    spec = ds.column(target)
    observed = np.flatnonzero(~ds.missing[target])
    metric = "mse" if spec.kind == NUMERIC else "accuracy"
    if observed.size < params.outer_k * params.inner_k:
        return "a0", []

    cells: dict[str, list[float]] = {a: [] for a in ALGORITHMS}
    outer = split_folds(
        observed.size, params.outer_k, stable_seed(params.seed, "select", target, "outer")
    )
    for o in range(params.outer_k):
        train_obs = observed[outer.fold_of_row != o]
        inner = split_folds(
            train_obs.size,
            params.inner_k,
            stable_seed(params.seed, "select", target, "inner", o),
        )
        for i in range(params.inner_k):
            fit_rows = train_obs[inner.fold_of_row != i]
            val_rows = train_obs[inner.fold_of_row == i]
            if fit_rows.size == 0 or val_rows.size == 0:
                continue
            fit_ds = take_rows(ds, fit_rows)
            truth = ds.values[target][val_rows].astype(np.float64)
            for alg in ALGORITHMS:
                entry = _fit_by_id(
                    fit_ds,
                    target,
                    alg,
                    params.boost,
                    params.min_rows,
                    stable_seed(params.seed, "select", target, alg, o, i),
                )
                pred = entry.predict(ds, val_rows)
                if metric == "mse":
                    cells[alg].append(float(np.mean((pred - truth) ** 2)))
                else:
                    cells[alg].append(float(np.mean(pred == truth)))

    means = {a: float(np.mean(cells[a])) for a in ALGORITHMS if cells[a]}
    if not means:
        return "a0", []
    chosen = "a0"
    for alg in ALGORITHMS:
        if metric == "mse":
            if means[alg] < means[chosen]:
                chosen = alg
        else:
            if means[alg] > means[chosen]:
                chosen = alg
    rows = [
        ScoreRow(column=target, algorithm=a, metric=metric, mean_score=means[a], chosen=a == chosen)
        for a in ALGORITHMS
    ]
    return chosen, rows
