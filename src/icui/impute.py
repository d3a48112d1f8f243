"""Missing-value imputation with per-column algorithm selection.

Four algorithms, identified a0..a3:

  a0  column statistic: median (lower of two middles) for numeric columns,
      most frequent code (lowest code on ties) for categorical ones.
  a1  boosted-tree prediction of the column from every other feature.
  a2  like a1, but predictors exclude columns in the target's variable group
      (same measurement under different summary suffixes: _min/_max/_avg/_diff),
      always derived from the column names by `derive_groups`.
  a3  per-row routing: rows that are also missing a same-group sibling use the
      a2 model, all other rows use a1.

Model-based algorithms train on rows where the target is observed; gaps in
predictor columns are filled with their a0 statistic, at fit and apply time
alike.  `select_imputer` scores all four per column with nested CV (outer and
inner splits over the target-observed rows; mean squared error for numeric
targets, accuracy for categorical) and picks the best, ties toward the lower
algorithm id.

Imputers are fitted on a table: the rows of a dataset they learn from (all
of them, or a selection cell's fit rows) and each column's a0 statistic over
those rows, computed once per table.  One builder makes a column's a0..a3
entries with unfitted predictors, each distinct one once (a3 routes between
a1's and a2's; a2 takes a1's when the target has no sibling).  An unfitted
predictor only describes its inputs, which are built when it is fitted.
Selection fits the entries of every cell of a column in one batch per
predictor list, and each cell predicts its held-out rows once per distinct
model.  `fit_column` fits one column's entry of any algorithm on the whole
table, and `fit_imputation` every column's; there each model is a lone
`fit_boosted_matrix` call.  `ColumnImputer.predict` is the one routing rule
of every entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .boost import (
    OBJECTIVE_LOGISTIC,
    OBJECTIVE_SQUARED,
    BoostedModel,
    BoostParams,
    fit_boosted_many,
    fit_boosted_matrix,
    predict_margin,
)
from .data import CATEGORICAL, NUMERIC, Dataset, split_folds
from .errors import ValidationError
from .rng import stable_seed

GROUP_SUFFIXES = ("_min", "_max", "_avg", "_diff")

ALGORITHMS = ("a0", "a1", "a2", "a3")
SELECT = "select"

_DEFAULT_IMPUTER_BOOST = BoostParams(n_rounds=50, max_depth=3, eta=0.1, reg_lambda=1.0)


@dataclass
class ImputeParams:
    algorithm: str = "a0"  # one of ALGORITHMS or "select"
    min_rows: int = 50
    outer_k: int = 3
    inner_k: int = 3
    seed: int = 0
    boost: BoostParams = field(default_factory=lambda: BoostParams(**vars(_DEFAULT_IMPUTER_BOOST)))
    fit_on_all: bool = False  # pipeline-level: fit the imputer once on the whole table

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS + (SELECT,):
            raise ValidationError(f"unknown imputation algorithm {self.algorithm!r}")
        for name, ok, rule in (
            ("min_rows", self.min_rows >= 0, ">= 0"),
            ("outer_k", self.outer_k >= 2, ">= 2"),
            ("inner_k", self.inner_k >= 2, ">= 2"),
        ):
            if not ok:
                raise ValidationError(f"{name} must be {rule}, got {getattr(self, name)!r}")


@dataclass
class ScoreRow:
    column: str
    algorithm: str
    metric: str  # "mse" or "accuracy"
    mean_score: float
    chosen: bool


@dataclass
class _Predictor:
    """Boosted model(s) of one target over `feature_names`.

    Made unfitted, as a description of its inputs: `source` holds the
    dataset and the target-observed rows it trains on, `jobs` the (y, seed)
    of each model.  `_fit` builds the input matrix, puts the models in place
    and drops the description.
    """

    feature_names: list[str]
    fallbacks: dict[str, float]
    target_kind: str
    kinds: list[str]
    objective: str
    source: tuple[Dataset, np.ndarray] | None  # None once fitted
    jobs: list | None  # None once fitted
    regressor: BoostedModel | None = None
    classifiers: list[tuple[int, BoostedModel | float | None]] | None = None  # (code, model or const margin)

    def predict(self, ds: Dataset, rows: np.ndarray) -> np.ndarray:
        x = _filled(ds, rows, self.feature_names, self.fallbacks)
        if self.target_kind == NUMERIC:
            return predict_margin(self.regressor, x)
        margins = np.empty((rows.size, len(self.classifiers)), dtype=np.float64)
        for j, (_, model) in enumerate(self.classifiers):
            margins[:, j] = model if isinstance(model, float) else predict_margin(model, x)
        codes = np.array([c for c, _ in self.classifiers], dtype=np.int64)
        return codes[np.argmax(margins, axis=1)].astype(np.float64)


@dataclass
class ColumnImputer:
    column: str
    kind: str
    algorithm: str  # effective algorithm: a0..a3
    fallback: float
    predictor: _Predictor | None = None          # a1 model
    predictor_grouped: _Predictor | None = None  # a2 model
    siblings: list[str] = field(default_factory=list)
    note: str | None = None

    def predict(self, ds: Dataset, rows: np.ndarray, shared: dict | None = None) -> np.ndarray:
        """Imputed values of `rows`.

        A row takes the a2 model when it is routed there (every row under
        a2, the rows missing a sibling under a3), else the a1 model; where
        that model is absent, the fallback.  `shared` maps id(predictor) to
        that predictor's values over the same `rows`; entries predicting the
        same rows with one dict run each predictor once.
        """
        shared = {} if shared is None else shared
        grouped = np.full(rows.size, self.algorithm == "a2")
        if self.algorithm == "a3":
            for j in _columns(ds, self.siblings):
                grouped |= np.isnan(ds.x[rows, j])
        out = np.empty(rows.size, dtype=np.float64)
        for mask, predictor in ((grouped, self.predictor_grouped), (~grouped, self.predictor)):
            if predictor is None:
                out[mask] = self.fallback
            elif mask.any():
                if id(predictor) not in shared:
                    shared[id(predictor)] = predictor.predict(ds, rows)
                out[mask] = shared[id(predictor)][mask]
        return out


@dataclass
class ImputationModel:
    columns: dict[str, ColumnImputer]
    score_rows: list[ScoreRow] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def derive_groups(names) -> dict[str, str]:
    """Group id per column: the name with one summary suffix stripped."""
    out = {}
    for name in names:
        group = name
        for suffix in GROUP_SUFFIXES:
            if name.endswith(suffix) and len(name) > len(suffix):
                group = name[: -len(suffix)]
                break
        out[name] = group
    return out


class _Stats(dict):
    """Column name -> a0 statistic over `n_rows` rows; a column without observed values there has none."""

    def __init__(self, n_rows: int):
        super().__init__()
        self.n_rows = n_rows

    def __missing__(self, name):
        raise ValidationError(
            f"column {name!r} has no observed values; cannot impute (imputer fitted on {self.n_rows} rows)"
        )


def _a0_stats(ds: Dataset, rows: np.ndarray) -> _Stats:
    """Each column's a0 statistic over `rows`; reading a column with none raises."""
    stats = _Stats(rows.size)
    for name, kind, col in zip(ds.names, ds.kinds, ds.x[rows].T):
        observed = col[~np.isnan(col)]
        if observed.size == 0:
            continue
        if kind == NUMERIC:
            stats[name] = float(np.sort(observed)[(observed.size - 1) // 2])
        else:
            stats[name] = float(np.argmax(np.bincount(observed.astype(np.int64))))
    return stats


class _Table(NamedTuple):
    """The rows of `ds` an imputer is fitted on, and every column's a0 statistic over them."""

    ds: Dataset
    rows: np.ndarray
    stats: _Stats


def _table(ds: Dataset, rows: np.ndarray | None = None) -> _Table:
    """`ds` restricted to `rows` (all rows when None), its a0 statistics computed once."""
    rows = np.arange(ds.n_rows) if rows is None else rows
    return _Table(ds, rows, _a0_stats(ds, rows))


def _columns(ds: Dataset, names) -> list[int]:
    """The positions of `names` among `ds`'s columns."""
    at = {name: j for j, name in enumerate(ds.names)}
    return [at[name] for name in names]


def _column(ds: Dataset, name: str) -> int:
    """The position of column `name`, which must exist."""
    if name not in ds.names:
        raise ValidationError(f"no such column: {name!r}")
    return ds.names.index(name)


def _filled(ds: Dataset, rows: np.ndarray, names: list[str], fallbacks: dict) -> np.ndarray:
    """The `names` columns over `rows`, each gap filled with its column's fallback."""
    x = ds.x[rows[:, None], _columns(ds, names)]
    np.copyto(x, [fallbacks[name] for name in names], where=np.isnan(x))
    return x


def _new_predictor(table: _Table, target: str, feature_names: list[str], seed: int) -> _Predictor:
    """An unfitted predictor of `target` from `feature_names`, on the table's target-observed rows."""
    ds, t = table.ds, _column(table.ds, target)
    rows = table.rows[~np.isnan(ds.x[table.rows, t])]
    fallbacks = {name: table.stats[name] for name in feature_names}
    kinds = [ds.kinds[j] for j in _columns(ds, feature_names)]
    y = ds.x[rows, t]
    source = (ds, rows)
    if ds.kinds[t] == NUMERIC:
        return _Predictor(feature_names, fallbacks, NUMERIC, kinds, OBJECTIVE_SQUARED, source, [(y, seed)])

    classifiers: list[tuple[int, BoostedModel | float | None]] = []
    jobs = []
    for code in np.flatnonzero(np.bincount(y.astype(np.int64))):  # the distinct codes, as np.unique
        indicator = (y == code).astype(np.float64)
        mean = float(indicator.mean())
        if mean <= 0.0 or mean >= 1.0:
            # degenerate one-vs-rest target: constant margin from a
            # pseudo-count-smoothed prevalence
            p = (indicator.sum() + 1.0) / (y.size + 2.0)
            classifiers.append((int(code), float(np.log(p / (1.0 - p)))))
            continue
        classifiers.append((int(code), None))
        jobs.append((indicator, stable_seed(seed, "ovr", int(code))))
    return _Predictor(
        feature_names, fallbacks, CATEGORICAL, kinds, OBJECTIVE_LOGISTIC, source, jobs,
        classifiers=classifiers,
    )


def _fit(entries, boost: BoostParams | None, batch: bool) -> None:
    """Fit every distinct unfitted predictor of `entries`.

    Predictors over one feature list share one `fit_boosted_many` call when
    `batch`; otherwise each model is a lone `fit_boosted_matrix` call.  Each
    predictor's input matrix is built just before its feature list is fitted.
    """
    by_features: dict[tuple[str, ...], list[_Predictor]] = {}
    predictors = [p for e in entries for p in (e.predictor, e.predictor_grouped) if p is not None]
    for p in {id(p): p for p in predictors if p.jobs is not None}.values():
        by_features.setdefault(tuple(p.feature_names), []).append(p)
    boost = boost or _DEFAULT_IMPUTER_BOOST
    for items in by_features.values():
        jobs = []
        for p in items:
            x = _filled(*p.source, p.feature_names, p.fallbacks)
            jobs += [(x, y, seed) for y, seed in p.jobs]
        kinds, objective, names = items[0].kinds, items[0].objective, items[0].feature_names
        if batch:
            models = iter(fit_boosted_many(jobs, kinds, names, boost, objective))
        else:
            models = (fit_boosted_matrix(x, y, kinds, names, boost, s, objective) for x, y, s in jobs)
        for p in items:
            if p.target_kind == NUMERIC:
                p.regressor = next(models)
            else:
                p.classifiers = [(c, next(models) if m is None else m) for c, m in p.classifiers]
            p.source = p.jobs = None


def _fallback_entry(table: _Table, target: str, note: str | None = None) -> ColumnImputer:
    kind, fallback = table.ds.kinds[_column(table.ds, target)], table.stats[target]
    return ColumnImputer(column=target, kind=kind, algorithm="a0", fallback=fallback, note=note)


def _model_predictor(table: _Table, target, algorithm, siblings, min_rows, seed, predictor=None):
    """(predictor, None) for `target`'s unfitted a1 or a2 model, or (None, why it falls back to a0).

    The predictor is `predictor` or a new one over every other column but
    `siblings` (a1 passes none).
    """
    n_obs = int((~np.isnan(table.ds.x[table.rows, _column(table.ds, target)])).sum())
    if n_obs < min_rows:
        return None, f"{algorithm} -> a0: {n_obs} complete cases < min_rows={min_rows}"
    features = [name for name in table.ds.names if name != target and name not in siblings]
    if not features:
        reason = "no predictor columns" if algorithm == "a1" else "no out-of-group predictors"
        return None, f"{algorithm} -> a0: {reason}"
    return predictor or _new_predictor(table, target, features, seed), None


def _siblings(ds: Dataset, target: str) -> list[str]:
    """The other columns of `target`'s variable group, in column order."""
    groups = derive_groups(ds.names)
    return [name for name in groups if name != target and groups[name] == groups[target]]


def _entries(
    table: _Table, target: str, siblings: list[str], min_rows: int, seed_a1: int, seed_a2: int
) -> dict[str, ColumnImputer]:
    """The unfitted a0..a3 entries for one column, each distinct predictor made once.

    a3 routes between the a1 and a2 predictors.  Without a same-group
    sibling, a2's predictors are exactly a1's, so a2 takes a1's predictor;
    when no subsampling is configured the seed is unused and that model is
    the one a separate fit would return.  An entry left without a predictor
    falls back to a0, noting why.
    """
    p1, note1 = _model_predictor(table, target, "a1", [], min_rows, seed_a1)
    reused = None if siblings else p1
    p2, note2 = _model_predictor(table, target, "a2", siblings, min_rows, seed_a2, reused)

    def entry(algorithm, predictor, grouped, note):
        if predictor is None and grouped is None:
            return _fallback_entry(table, target, note)
        return ColumnImputer(
            column=target,
            kind=table.ds.kinds[_column(table.ds, target)],
            algorithm=algorithm,
            fallback=table.stats[target],
            predictor=predictor,
            predictor_grouped=grouped,
            siblings=[] if grouped is None else siblings,
            note=note,
        )

    return {
        "a0": _fallback_entry(table, target),
        "a1": entry("a1", p1, None, note1),
        "a2": entry("a2", None, p2, note2),
        "a3": entry("a3", p1, p2, note1 or note2),
    }


def _entry(table: _Table, target: str, algorithm: str, min_rows: int, seed: int) -> ColumnImputer:
    """`target`'s unfitted `algorithm` entry; an a0 entry reads no other column."""
    if algorithm == "a0":
        return _fallback_entry(table, target)
    return _entries(table, target, _siblings(table.ds, target), min_rows, seed, seed)[algorithm]


def fit_column(
    ds: Dataset,
    target: str,
    algorithm: str,
    boost: BoostParams | None = None,
    min_rows: int = 50,
    seed: int = 0,
) -> ColumnImputer:
    """`target`'s `algorithm` entry (a0..a3), fitted on the whole table.

    Each model is a lone `fit_boosted_matrix` call.  An entry whose model
    cannot be made (too few complete cases, no predictor columns) is an a0
    entry noting why.
    """
    if algorithm not in ALGORITHMS:
        raise ValidationError(f"unknown imputation algorithm {algorithm!r}")
    entry = _entry(_table(ds), target, algorithm, min_rows, seed)
    _fit([entry], boost, batch=False)
    return entry


def select_imputer(
    ds: Dataset, target: str, params: ImputeParams | None = None
) -> tuple[str, list[ScoreRow]]:
    """Nested-CV pick among a0..a3 for one column.

    Scores each algorithm on held-out target-observed rows: every outer fold
    contributes inner_k fit/validate cells on its training portion; the score
    is the mean over all cells.  Lower MSE wins for numeric targets, higher
    accuracy for categorical; ties break toward the lower algorithm id.

    Both the outer and the inner splits are unstratified seeded shuffles of
    the target-observed rows (`split_folds` without labels).  Stratifying a
    categorical target by its code would change which rows each cell holds,
    and so the chosen algorithms and every imputed byte.

    Every cell's entries are built unfitted first; the models of all cells
    are then fitted in one `fit_boosted_many` call per feature list, and each
    cell predicts its held-out rows once per distinct model.
    """
    params = params or ImputeParams()
    t = _column(ds, target)
    observed = np.flatnonzero(~np.isnan(ds.x[:, t]))
    metric = "mse" if ds.kinds[t] == NUMERIC else "accuracy"
    if observed.size < params.outer_k * params.inner_k:
        return "a0", []

    cells = []
    siblings = _siblings(ds, target)
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
            seeds = [stable_seed(params.seed, "select", target, a, o, i) for a in ("a1", "a2")]
            entries = _entries(_table(ds, fit_rows), target, siblings, params.min_rows, *seeds)
            cells.append((entries, val_rows))
    _fit([e for entries, _ in cells for e in entries.values()], params.boost, batch=True)

    scores: dict[str, list[float]] = {a: [] for a in ALGORITHMS}
    for entries, val_rows in cells:
        truth = ds.x[val_rows, t]
        shared: dict = {}
        for alg, entry in entries.items():
            pred = entry.predict(ds, val_rows, shared)
            if metric == "mse":
                scores[alg].append(float(np.mean((pred - truth) ** 2)))
            else:
                scores[alg].append(float(np.mean(pred == truth)))

    means = {a: float(np.mean(scores[a])) for a in ALGORITHMS}
    # the first best algorithm, as a strict-improvement scan in id order finds it
    chosen = (min if metric == "mse" else max)(ALGORITHMS, key=means.__getitem__)
    rows = [
        ScoreRow(column=target, algorithm=a, metric=metric, mean_score=means[a], chosen=a == chosen)
        for a in ALGORITHMS
    ]
    return chosen, rows


def fit_imputation(ds: Dataset, params: ImputeParams | None = None) -> ImputationModel:
    """Fit a complete imputation model for the dataset.

    Columns with missing cells get the configured algorithm (or the nested-CV
    choice under "select"); complete columns get a0 entries so the model also
    covers missingness that only appears at apply time.  Every entry is
    built on one table, then their models are fitted as `fit_column` fits
    them.
    """
    params = params or ImputeParams()
    model = ImputationModel(columns={})
    table = _table(ds)
    for name, gaps in zip(ds.names, np.isnan(ds.x).any(axis=0)):
        chosen = params.algorithm if gaps else "a0"
        if chosen == SELECT:
            chosen, rows = select_imputer(ds, name, params)
            model.score_rows.extend(rows)
            if not rows:
                model.warnings.append(
                    f"{name}: too few observed rows for nested-CV selection; using a0"
                )
        entry = _entry(table, name, chosen, params.min_rows, stable_seed(params.seed, "impute", name))
        if entry.note:
            model.warnings.append(f"{name}: {entry.note}")
        model.columns[name] = entry
    _fit(model.columns.values(), params.boost, batch=False)
    return model


def impute(ds: Dataset, model: ImputationModel) -> Dataset:
    """Fill every missing cell; observed cells pass through bit-identically."""
    x = ds.x.copy()
    for j, (name, kind) in enumerate(zip(ds.names, ds.kinds)):
        rows = np.flatnonzero(np.isnan(ds.x[:, j]))
        if rows.size == 0:
            continue
        entry = model.columns.get(name)
        if entry is None:
            raise ValidationError(f"imputation model does not cover column {name!r}")
        pred = entry.predict(ds, rows)
        if not np.isfinite(pred).all():
            raise ValidationError(f"non-finite imputed values for column {name!r}")
        if kind == CATEGORICAL:
            pred = np.rint(pred).astype(np.int64)
            if pred.min() < 0 or pred.max() >= len(ds.code_maps.get(name, [])):
                raise ValidationError(f"imputed code out of range for column {name!r}")
        x[rows, j] = pred
    return replace(ds, x=x)
