"""Columnar dataset model for tabular binary-outcome CSV files.

Conventions, fixed across the toolkit:
  * CSV dialect: UTF-8, comma separated, LF line ends, header row required,
    empty field = missing value.  Every table is written by `write_table`,
    every JSON artifact by `write_json`.
  * Numeric columns are float64; a column is numeric iff every non-missing
    cell parses as a finite float.
  * Categorical columns store dense integer codes (0..n_codes-1) assigned by
    sorted string order, with the code->string table kept alongside.
  * Labels are a {0,1} vector held outside the feature columns.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ParseError, ValidationError
from .rng import make_rng

NUMERIC = "numeric"
CATEGORICAL = "categorical"

DEFAULT_LABEL_COLUMN = "icu_death"

# Columns that must never reach a model: row identifiers and the alternate
# outcome recorded alongside the target.
LEAKAGE_COLUMNS = ("patientunitstayid", "encounter_id", "hospital_death", "partition")


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    kind: str  # NUMERIC or CATEGORICAL


@dataclass
class Dataset:
    """Feature columns plus an optional label vector.

    `values[name]` is float64 for numeric columns and int64 codes for
    categorical ones; `missing[name]` is the authoritative per-cell mask
    (value entries under a True mask are placeholders: NaN / -1).
    """

    columns: list[ColumnSpec]
    values: dict[str, np.ndarray]
    missing: dict[str, np.ndarray]
    n_rows: int
    labels: np.ndarray | None = None
    label_name: str | None = None
    code_maps: dict[str, list[str]] = field(default_factory=dict)

    def feature_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> ColumnSpec:
        for c in self.columns:
            if c.name == name:
                return c
        raise ValidationError(f"no such column: {name!r}")

    def check(self) -> None:
        names = self.feature_names()
        if len(set(names)) != len(names):
            raise ValidationError("duplicate column names")
        for c in self.columns:
            v, m = self.values[c.name], self.missing[c.name]
            if len(v) != self.n_rows or len(m) != self.n_rows:
                raise ValidationError(f"column {c.name!r}: length != n_rows")
            if c.kind == NUMERIC:
                ok = np.isfinite(v) | m
                if not ok.all():
                    raise ValidationError(f"column {c.name!r}: non-finite value")
            elif c.kind == CATEGORICAL:
                codes = v[~m]
                n_codes = len(self.code_maps.get(c.name, []))
                if codes.size and (codes.min() < 0 or codes.max() >= n_codes):
                    raise ValidationError(f"column {c.name!r}: code out of range")
            else:
                raise ValidationError(f"column {c.name!r}: unknown kind {c.kind!r}")
        if self.labels is not None:
            if len(self.labels) != self.n_rows:
                raise ValidationError("labels length != n_rows")
            if self.n_rows and not np.isin(self.labels, (0, 1)).all():
                raise ValidationError("labels must be 0 or 1")


@dataclass
class DatasetSummary:
    n_rows: int
    n_features: int
    prevalence: float
    missing_rate: dict[str, float]


@dataclass
class PreprocessPlan:
    """Declarative cleanup applied before modeling.

    `exclude` and `label` refer to column names as found in the input file;
    `rename` (old -> new) is applied afterwards and must stay injective.
    """

    exclude: list[str] = field(default_factory=list)
    rename: dict[str, str] = field(default_factory=dict)
    label: str = DEFAULT_LABEL_COLUMN

    def __post_init__(self) -> None:
        targets = list(self.rename.values())
        if len(set(targets)) != len(targets):
            raise ValidationError("rename map is not injective")
        if self.label in self.exclude:
            raise ValidationError("label column cannot be excluded")


def preset_plan(name: str) -> PreprocessPlan:
    """Built-in cleanup plans for the two supported table layouts."""
    if name == "dataset1":
        return PreprocessPlan(
            exclude=list(LEAKAGE_COLUMNS),
            rename={
                "vent": "ventilated_apache",
                "dx_class": "apache_2_diagnosis",
                "dx_sub": "apache_3j_diagnosis",
            },
            label=DEFAULT_LABEL_COLUMN,
        )
    if name == "dataset2":
        return PreprocessPlan(exclude=list(LEAKAGE_COLUMNS), rename={}, label=DEFAULT_LABEL_COLUMN)
    raise ValidationError(f"unknown preset {name!r} (expected 'dataset1' or 'dataset2')")


@dataclass
class FoldAssignment:
    n_rows: int
    k: int
    seed: int
    fold_of_row: np.ndarray  # int64, values in 0..k-1

    def fold_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of_row == fold)


def _parse_label_cell(cell: str, row: int, name: str) -> int:
    if cell == "":
        raise ValidationError(f"row {row}: label column {name!r} is missing")
    try:
        val = float(cell)
    except ValueError:
        raise ValidationError(f"row {row}: label {cell!r} is not 0 or 1") from None
    if val not in (0.0, 1.0):
        raise ValidationError(f"row {row}: label {cell!r} is not 0 or 1")
    return int(val)


def _float_cells(cells, missing: np.ndarray) -> np.ndarray | None:
    """`cells` as float64, NaN where missing; None unless every other cell is a finite float.

    np.array parses each str with float(), so '1_0' and ' 1.5 ' are numbers
    here as they are to float().
    """
    try:
        col = np.array([c or "nan" for c in cells], dtype=np.float64)
    except ValueError:
        return None
    return col if np.isfinite(col[~missing]).all() else None


def load_csv(path: str, label_column: str | None = None) -> Dataset:
    """Load a CSV file into a Dataset.

    Column kinds are inferred: numeric iff every non-missing cell parses as a
    finite float (all-missing columns default to numeric), categorical
    otherwise.  A column named `label_column` (default 'icu_death'), when
    present, is pulled out as the label vector.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file, expected a header row") from None
        rows = []
        for i, rec in enumerate(reader, start=1):
            if not rec:
                continue  # blank line
            if len(rec) != len(header):
                raise ParseError(f"{path}: row {i}: expected {len(header)} fields, got {len(rec)}")
            rows.append(rec)

    if "" in header:
        raise ValidationError(f"{path}: column {header.index('') + 1} of the header has an empty name")
    if len(set(header)) != len(header):
        raise ValidationError(f"{path}: duplicate column names in header")
    n = len(rows)
    raw = dict(zip(header, list(zip(*rows)) or [()] * len(header)))

    wanted = DEFAULT_LABEL_COLUMN if label_column is None else label_column
    label_name = wanted if wanted in raw else None

    columns: list[ColumnSpec] = []
    values: dict[str, np.ndarray] = {}
    missing: dict[str, np.ndarray] = {}
    code_maps: dict[str, list[str]] = {}
    labels = None

    for name in header:
        cells = raw[name]
        if name == label_name:
            labels = np.array(
                [_parse_label_cell(c, i + 1, name) for i, c in enumerate(cells)], dtype=np.uint8
            )
            continue
        mask = np.array([c == "" for c in cells], dtype=bool)
        col = _float_cells(cells, mask)
        kind = NUMERIC
        if col is None:
            kind = CATEGORICAL
            levels = sorted({c for c in cells if c != ""})
            code_of = {s: j for j, s in enumerate(levels)}
            col = np.array([code_of.get(c, -1) for c in cells], dtype=np.int64)
            code_maps[name] = levels
        columns.append(ColumnSpec(name, kind))
        values[name] = col
        missing[name] = mask

    ds = Dataset(
        columns=columns,
        values=values,
        missing=missing,
        n_rows=n,
        labels=labels,
        label_name=label_name,
        code_maps=code_maps,
    )
    ds.check()
    return ds


def write_table(path: str, header: list[str], rows) -> None:
    """Write `header`, then each row of `rows`, in the CSV dialect above."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path: str, payload: dict) -> None:
    """Write `payload` as JSON: indent 2, sorted keys, a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(ds: Dataset, path: str) -> None:
    """Write features (in column order) plus the label column, if any, last.

    Numeric cells use shortest round-trip formatting, so load -> write -> load
    reproduces values and missingness bit-exactly.
    """
    header = ds.feature_names()
    if ds.labels is not None:
        header = header + [ds.label_name or DEFAULT_LABEL_COLUMN]

    def rows():
        for i in range(ds.n_rows):
            rec = []
            for c in ds.columns:
                if ds.missing[c.name][i]:
                    rec.append("")
                elif c.kind == NUMERIC:
                    rec.append(repr(float(ds.values[c.name][i])))
                else:
                    rec.append(ds.code_maps[c.name][int(ds.values[c.name][i])])
            if ds.labels is not None:
                rec.append(str(int(ds.labels[i])))
            yield rec

    write_table(path, header, rows())


def apply_preprocess(ds: Dataset, plan: PreprocessPlan) -> Dataset:
    """Extract the label, then drop excluded columns and apply renames (`exclude_and_rename`)."""
    labels = ds.labels
    label_source = ds.label_name
    if plan.label in ds.feature_names():
        spec = ds.column(plan.label)
        mask = ds.missing[plan.label]
        if mask.any():
            raise ValidationError(f"label column {plan.label!r} has missing values")
        if spec.kind == CATEGORICAL:
            raise ValidationError(f"label column {plan.label!r} is not numeric 0/1")
        vals = ds.values[plan.label]
        if ds.n_rows and not np.isin(vals, (0.0, 1.0)).all():
            raise ValidationError(f"label column {plan.label!r} has values outside {{0,1}}")
        labels = vals.astype(np.uint8)
        label_source = plan.label
    elif labels is None or plan.label != ds.label_name:
        raise ValidationError(f"label column {plan.label!r} not found")
    return exclude_and_rename(replace(ds, labels=labels, label_name=label_source), plan)


def exclude_and_rename(ds: Dataset, plan: PreprocessPlan) -> Dataset:
    """`ds` without the plan's excluded columns and its label column, then renamed; labels pass through."""
    present = set(ds.feature_names())
    absent = [n for n in plan.exclude if n not in present]
    if absent:
        raise ValidationError(f"plan excludes columns absent from dataset: {absent}")

    drop = set(plan.exclude) | {plan.label}
    kept = [c for c in ds.columns if c.name not in drop]

    missing_renames = [old for old in plan.rename if old not in {c.name for c in kept}]
    if missing_renames:
        raise ValidationError(f"plan renames columns absent from dataset: {missing_renames}")
    new_names = {}
    for c in kept:
        new = plan.rename.get(c.name, c.name)
        new_names[c.name] = new
    if len(set(new_names.values())) != len(new_names):
        raise ValidationError("rename map collides with existing column names")

    columns = [replace(c, name=new_names[c.name]) for c in kept]
    values = {new_names[c.name]: ds.values[c.name] for c in kept}
    missing = {new_names[c.name]: ds.missing[c.name] for c in kept}
    code_maps = {new_names[c.name]: ds.code_maps[c.name] for c in kept if c.name in ds.code_maps}

    out = Dataset(
        columns=columns,
        values=values,
        missing=missing,
        n_rows=ds.n_rows,
        labels=ds.labels,
        label_name=ds.label_name,
        code_maps=code_maps,
    )
    out.check()
    return out


def take_rows(ds: Dataset, indices: np.ndarray) -> Dataset:
    """Row subset (copy), labels included."""
    idx = np.asarray(indices, dtype=np.int64)
    return Dataset(
        columns=list(ds.columns),
        values={n: v[idx].copy() for n, v in ds.values.items()},
        missing={n: m[idx].copy() for n, m in ds.missing.items()},
        n_rows=int(idx.size),
        labels=None if ds.labels is None else ds.labels[idx].copy(),
        label_name=ds.label_name,
        code_maps={n: list(v) for n, v in ds.code_maps.items()},
    )


def drop_incomplete_rows(ds: Dataset) -> Dataset:
    """Keep only rows with no missing feature cells."""
    keep = np.ones(ds.n_rows, dtype=bool)
    for c in ds.columns:
        keep &= ~ds.missing[c.name]
    if not keep.any():
        raise ValidationError("no complete rows remain after dropping")
    return take_rows(ds, np.flatnonzero(keep))


def summarize(ds: Dataset) -> DatasetSummary:
    if ds.labels is None:
        raise ValidationError("dataset has no labels; prevalence undefined")
    prevalence = float(ds.labels.sum() / ds.n_rows) if ds.n_rows else float("nan")
    rate = {
        c.name: float(ds.missing[c.name].sum() / ds.n_rows) if ds.n_rows else 0.0
        for c in ds.columns
    }
    return DatasetSummary(
        n_rows=ds.n_rows, n_features=len(ds.columns), prevalence=prevalence, missing_rate=rate
    )


def split_folds(
    n_rows: int,
    k: int,
    seed: int,
    labels: np.ndarray | None = None,
    stratified: bool = False,
) -> FoldAssignment:
    """Permutation-then-chunk fold assignment.

    Rows are shuffled once with the seeded stream and cut into k chunks whose
    sizes differ by at most one.  With `stratified=True` the same procedure is
    applied within each class.
    """
    if k < 2:
        raise ValidationError(f"k must be >= 2, got {k}")
    if n_rows < k:
        raise ValidationError(f"cannot split {n_rows} rows into {k} folds")
    rng = make_rng(seed, "folds")
    fold_of_row = np.empty(n_rows, dtype=np.int64)

    def chunk(indices: np.ndarray) -> None:
        m = indices.size
        base, rem = divmod(m, k)
        start = 0
        for f in range(k):
            size = base + (1 if f < rem else 0)
            fold_of_row[indices[start : start + size]] = f
            start += size

    if stratified:
        if labels is None:
            raise ValidationError("stratified split requires labels")
        for cls in (0, 1):
            cls_idx = np.flatnonzero(labels == cls)
            chunk(cls_idx[rng.permutation(cls_idx.size)])
    else:
        chunk(rng.permutation(n_rows))
    return FoldAssignment(n_rows=n_rows, k=k, seed=seed, fold_of_row=fold_of_row)


def design_matrix(ds: Dataset) -> tuple[np.ndarray, list[str], list[str]]:
    """Dense float64 matrix over feature columns.

    Categorical codes are embedded as exact floats.  Errors out on missing
    cells: model fitting requires a complete table (impute or drop first).
    """
    bad = [c.name for c in ds.columns if ds.missing[c.name].any()]
    if bad:
        raise ValidationError(
            f"columns with missing values: {bad}; impute or drop incomplete rows first"
        )
    X = np.empty((ds.n_rows, len(ds.columns)), dtype=np.float64)
    for j, c in enumerate(ds.columns):
        X[:, j] = ds.values[c.name].astype(np.float64)
    return X, [c.kind for c in ds.columns], [c.name for c in ds.columns]
