"""One table format for tabular binary-outcome CSV files.

Conventions, fixed across the toolkit:
  * CSV dialect: UTF-8, comma separated, LF line ends, header row required,
    empty field = missing value.  Every table is written by `write_table`,
    every JSON artifact by `write_json`.
  * A `Dataset` is one (n_rows, n_features) float64 matrix `x`, with the
    column names and kinds alongside.  NaN marks a missing cell and nothing
    else is NaN; no cell is infinite.
  * A column is numeric iff every non-empty cell parses as a finite float.
    A column of finite floats whose other non-empty cells are non-finite
    floats (`nan`, `inf`, `1e999`, ...) or missing markers (`MISSING_MARKERS`)
    is rejected, naming the column, row and cell: a missing cell is empty.
  * Categorical columns hold dense integer codes (0..n_codes-1), stored as
    exact floats and assigned by sorted string order, with the code->string
    table kept alongside.
  * Labels are a {0,1} vector held outside the feature matrix.
"""

from __future__ import annotations

import csv
import json
import math
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

# Cells that spell a missing value.  In a numeric column they are an error,
# not a category: a missing cell is an empty field.
MISSING_MARKERS = ("NA", "N/A", "NULL", "null", ".")


@dataclass
class Dataset:
    """Feature matrix plus an optional label vector.

    `x[:, j]` is feature `names[j]` of kind `kinds[j]`: float64 values for a
    numeric column, integer codes stored as exact floats for a categorical
    one.  NaN marks a missing cell and nothing else.
    """

    names: list[str]
    kinds: list[str]
    x: np.ndarray  # (n_rows, n_features) float64
    labels: np.ndarray | None = None
    label_name: str | None = None
    code_maps: dict[str, list[str]] = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        return self.x.shape[0]

    @property
    def missing(self) -> dict[str, np.ndarray]:
        """Read-only missing mask per column name."""
        nan = np.isnan(self.x)
        nan.flags.writeable = False
        return dict(zip(self.names, nan.T))

    def check(self) -> None:
        if len(set(self.names)) != len(self.names):
            raise ValidationError("duplicate column names")
        if self.x.dtype != np.float64 or self.x.shape[1:] != (len(self.names),) or len(self.kinds) != len(self.names):
            raise ValidationError("x must be a float64 matrix with one column per name and kind")
        bad = np.isinf(self.x).any(axis=0)
        if bad.any():
            raise ValidationError(f"column {self.names[int(np.argmax(bad))]!r}: non-finite value")
        for name, kind, col in zip(self.names, self.kinds, self.x.T):
            if kind == CATEGORICAL:
                codes = col[~np.isnan(col)]
                n_codes = len(self.code_maps.get(name, []))
                if not ((codes >= 0) & (codes < n_codes) & (codes == np.floor(codes))).all():
                    raise ValidationError(f"column {name!r}: code out of range")
            elif kind != NUMERIC:
                raise ValidationError(f"column {name!r}: unknown kind {kind!r}")
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


def _float_cells(cells, where: str) -> np.ndarray | None:
    """`cells` as float64, NaN where empty; None unless every other cell is a finite float.

    np.array parses each str with float(), so '1_0' and ' 1.5 ' are numbers
    here as they are to float().  A column with a finite float whose other
    non-empty cells are floats or missing markers is numeric, so a
    non-finite float or a marker in it raises, naming its row.
    """
    try:
        col = np.array([c or "nan" for c in cells], dtype=np.float64)
        if np.isfinite(col[np.array([c != "" for c in cells], dtype=bool)]).all():
            return col
    except ValueError:
        pass
    finite, bad = False, None
    for row, cell in enumerate(cells, start=1):
        if cell == "":
            continue
        try:
            value = float(cell)
        except ValueError:
            if cell not in MISSING_MARKERS:
                return None
            value = math.nan
        if math.isfinite(value):
            finite = True
        elif bad is None:
            bad = f"{where}, row {row}: cell {cell!r} in a numeric column; leave a missing cell empty"
    if finite and bad:
        raise ValidationError(bad)
    return None


def load_csv(path: str, label_column: str | None = None) -> Dataset:
    """Load a CSV file into a Dataset.

    Column kinds are inferred: numeric iff every non-empty cell parses as a
    finite float (all-empty columns default to numeric), categorical
    otherwise, and a numeric column with a non-finite float or a missing
    marker in it is an error.  A column named `label_column` (default
    'icu_death'), when present, is pulled out as the label vector.
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
    raw = dict(zip(header, list(zip(*rows)) or [()] * len(header)))

    wanted = DEFAULT_LABEL_COLUMN if label_column is None else label_column
    label_name = wanted if wanted in raw else None
    names = [name for name in header if name != label_name]
    kinds = []
    x = np.empty((len(rows), len(names)), dtype=np.float64)
    code_maps: dict[str, list[str]] = {}
    labels = None
    if label_name is not None:
        cells = raw[label_name]
        labels = np.array([_parse_label_cell(c, i + 1, label_name) for i, c in enumerate(cells)], dtype=np.uint8)

    for j, name in enumerate(names):
        cells = raw[name]
        col = _float_cells(cells, f"{path}: column {name!r}")
        kind = NUMERIC
        if col is None:
            kind = CATEGORICAL
            levels = sorted({c for c in cells if c != ""})
            code_of = {s: float(k) for k, s in enumerate(levels)}
            col = [code_of.get(c, math.nan) for c in cells]
            code_maps[name] = levels
        kinds.append(kind)
        x[:, j] = col

    ds = Dataset(names=names, kinds=kinds, x=x, labels=labels, label_name=label_name, code_maps=code_maps)
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
    header = list(ds.names)
    if ds.labels is not None:
        header.append(ds.label_name or DEFAULT_LABEL_COLUMN)
    levels = [ds.code_maps[name] if kind == CATEGORICAL else None for name, kind in zip(ds.names, ds.kinds)]

    def rows():
        for i, row in enumerate(ds.x.tolist()):
            rec = ["" if math.isnan(v) else repr(v) if lv is None else lv[int(v)] for lv, v in zip(levels, row)]
            if ds.labels is not None:
                rec.append(str(int(ds.labels[i])))
            yield rec

    write_table(path, header, rows())


def apply_preprocess(ds: Dataset, plan: PreprocessPlan) -> Dataset:
    """Extract the label, then drop excluded columns and apply renames (`exclude_and_rename`)."""
    labels = ds.labels
    label_source = ds.label_name
    if plan.label in ds.names:
        j = ds.names.index(plan.label)
        vals = ds.x[:, j]
        if np.isnan(vals).any():
            raise ValidationError(f"label column {plan.label!r} has missing values")
        if ds.kinds[j] == CATEGORICAL:
            raise ValidationError(f"label column {plan.label!r} is not numeric 0/1")
        if ds.n_rows and not np.isin(vals, (0.0, 1.0)).all():
            raise ValidationError(f"label column {plan.label!r} has values outside {{0,1}}")
        labels = vals.astype(np.uint8)
        label_source = plan.label
    elif labels is None or plan.label != ds.label_name:
        raise ValidationError(f"label column {plan.label!r} not found")
    return exclude_and_rename(replace(ds, labels=labels, label_name=label_source), plan)


def exclude_and_rename(ds: Dataset, plan: PreprocessPlan) -> Dataset:
    """`ds` without the plan's excluded columns and its label column, then renamed; labels pass through."""
    absent = [n for n in plan.exclude if n not in ds.names]
    if absent:
        raise ValidationError(f"plan excludes columns absent from dataset: {absent}")

    drop = set(plan.exclude) | {plan.label}
    keep = [j for j, name in enumerate(ds.names) if name not in drop]
    kept = [ds.names[j] for j in keep]

    missing_renames = [old for old in plan.rename if old not in kept]
    if missing_renames:
        raise ValidationError(f"plan renames columns absent from dataset: {missing_renames}")
    names = [plan.rename.get(name, name) for name in kept]
    if len(set(names)) != len(names):
        raise ValidationError("rename map collides with existing column names")

    out = replace(
        ds,
        names=names,
        kinds=[ds.kinds[j] for j in keep],
        x=ds.x.take(keep, axis=1),
        code_maps={new: ds.code_maps[old] for old, new in zip(kept, names) if old in ds.code_maps},
    )
    out.check()
    return out


def take_rows(ds: Dataset, indices: np.ndarray) -> Dataset:
    """Row subset (copy), labels included."""
    idx = np.asarray(indices, dtype=np.int64)
    return replace(ds, x=ds.x[idx], labels=None if ds.labels is None else ds.labels[idx])


def drop_incomplete_rows(ds: Dataset) -> Dataset:
    """Keep only rows with no missing feature cells."""
    keep = ~np.isnan(ds.x).any(axis=1)
    if not keep.any():
        raise ValidationError("no complete rows remain after dropping")
    return take_rows(ds, np.flatnonzero(keep))


def summarize(ds: Dataset) -> DatasetSummary:
    if ds.labels is None:
        raise ValidationError("dataset has no labels; prevalence undefined")
    prevalence = float(ds.labels.sum() / ds.n_rows) if ds.n_rows else float("nan")
    counts = np.isnan(ds.x).sum(axis=0)
    rate = {name: float(c / ds.n_rows) if ds.n_rows else 0.0 for name, c in zip(ds.names, counts)}
    return DatasetSummary(n_rows=ds.n_rows, n_features=len(ds.names), prevalence=prevalence, missing_rate=rate)


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
    """`ds.x`, `ds.kinds` and `ds.names` themselves, not copies.

    Errors out on missing cells: model fitting requires a complete table
    (impute or drop first).
    """
    bad = [name for name, gap in zip(ds.names, np.isnan(ds.x).any(axis=0)) if gap]
    if bad:
        raise ValidationError(
            f"columns with missing values: {bad}; impute or drop incomplete rows first"
        )
    return ds.x, ds.kinds, ds.names
