from __future__ import annotations

import numpy as np
import pytest

from conftest import build_dataset
from icui.data import (
    CATEGORICAL,
    NUMERIC,
    PreprocessPlan,
    apply_preprocess,
    design_matrix,
    drop_incomplete_rows,
    load_csv,
    preset_plan,
    split_folds,
    summarize,
    take_rows,
    write_csv,
)
from icui.errors import ParseError, ValidationError


def test_load_csv_type_inference_and_labels(tmp_csv):
    path = tmp_csv("a,b,icu_death\n1.5,x,0\n,y,1\n")
    ds = load_csv(path)
    assert [c.name for c in ds.columns] == ["a", "b"]
    assert ds.column("a").kind == NUMERIC
    assert ds.column("b").kind == CATEGORICAL
    assert ds.missing["a"].tolist() == [False, True]
    assert ds.values["a"][0] == 1.5
    assert ds.labels.tolist() == [0, 1]
    assert ds.label_name == "icu_death"


def test_load_csv_ragged_row_names_offender(tmp_csv):
    path = tmp_csv("a,b,c\n1,2\n")
    with pytest.raises(ParseError, match="row 1"):
        load_csv(path)


def test_load_csv_empty_header_name_names_its_position(tmp_csv):
    path = tmp_csv("a,,icu_death\n1,2,0\n")
    with pytest.raises(ValidationError, match="column 2 of the header has an empty name"):
        load_csv(path)


def test_load_csv_bad_label_value(tmp_csv):
    path = tmp_csv("a,icu_death\n1,2\n")
    with pytest.raises(ValidationError, match="label"):
        load_csv(path)


def test_load_csv_categorical_codes_dense_sorted(tmp_csv):
    path = tmp_csv("col,extra\nbeta,1\nalpha,2\n,3\nbeta,4\n")
    ds = load_csv(path)
    assert ds.code_maps["col"] == ["alpha", "beta"]
    assert ds.values["col"].tolist() == [1, 0, -1, 1]
    assert ds.missing["col"].tolist() == [False, False, True, False]


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity", "1e999"])
def test_load_csv_non_finite_cells(tmp_csv, cell):
    # a non-finite cell makes the column categorical
    path = tmp_csv(f"a,b\n1.5,2\n{cell},3\n")
    ds = load_csv(path)
    assert ds.column("a").kind == CATEGORICAL
    assert ds.code_maps["a"] == sorted(["1.5", cell])
    assert ds.column("b").kind == NUMERIC


def test_load_csv_skips_blank_lines(tmp_csv):
    path = tmp_csv("a,b\n1,2\n\n3,4\n")
    ds = load_csv(path)
    assert ds.n_rows == 2
    assert ds.values["a"].tolist() == [1.0, 3.0]


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    n = 60
    vals = rng.standard_normal(n) * 1e3
    mask = rng.random(n) < 0.3
    codes = rng.integers(0, 3, n)
    cmask = rng.random(n) < 0.2
    ds = build_dataset(
        numeric={"x": vals},
        categorical={"c": (codes, ["c0", "c1", "c2"])},
        labels=rng.integers(0, 2, n),
        missing={"x": mask, "c": cmask},
    )
    p = tmp_path / "rt.csv"
    write_csv(ds, str(p))
    back = load_csv(str(p))
    assert back.missing["x"].tolist() == mask.tolist()
    assert np.array_equal(back.values["x"][~mask], vals[~mask])
    assert back.values["x"][~mask].tobytes() == vals[~mask].tobytes()
    assert back.missing["c"].tolist() == cmask.tolist()
    assert np.array_equal(back.values["c"][~cmask], codes[~cmask])
    assert back.labels.tolist() == ds.labels.tolist()
    # second round trip is byte-identical at the file level
    p2 = tmp_path / "rt2.csv"
    write_csv(back, str(p2))
    assert p.read_bytes() == p2.read_bytes()


def test_apply_preprocess_excludes_leakage_columns():
    n = 8
    ds = build_dataset(
        numeric={
            "patientunitstayid": np.arange(n, dtype=float),
            "encounter_id": np.arange(n, dtype=float),
            "hospital_death": np.zeros(n),
            "partition": np.ones(n),
            "age": np.linspace(20, 90, n),
            "icu_death": np.array([0, 1] * 4, dtype=float),
        },
        label_name="none",
    )
    out = apply_preprocess(ds, preset_plan("dataset2"))
    banned = {"patientunitstayid", "encounter_id", "hospital_death", "partition"}
    assert banned.isdisjoint(out.feature_names())
    assert out.feature_names() == ["age"]
    assert out.labels.tolist() == [0, 1] * 4


def test_apply_preprocess_renames():
    ds = build_dataset(
        numeric={
            "patientunitstayid": [1.0, 2.0],
            "encounter_id": [1.0, 2.0],
            "hospital_death": [0.0, 0.0],
            "partition": [1.0, 1.0],
            "vent": [0.0, 1.0],
            "dx_class": [3.0, 4.0],
            "dx_sub": [5.0, 6.0],
            "icu_death": [0.0, 1.0],
        },
        label_name="none",
    )
    out = apply_preprocess(ds, preset_plan("dataset1"))
    assert out.feature_names() == ["ventilated_apache", "apache_2_diagnosis", "apache_3j_diagnosis"]
    assert out.values["ventilated_apache"].tolist() == [0.0, 1.0]


def test_apply_preprocess_absent_names_error():
    ds = build_dataset(numeric={"a": [1.0], "icu_death": [0.0]}, label_name="none")
    with pytest.raises(ValidationError, match="ghost"):
        apply_preprocess(ds, PreprocessPlan(exclude=["ghost"]))


def test_apply_preprocess_label_required():
    ds = build_dataset(numeric={"a": [1.0, 2.0]})  # no labels, no icu_death column
    ds.labels = None
    ds.label_name = None
    with pytest.raises(ValidationError, match="icu_death"):
        apply_preprocess(ds, PreprocessPlan())


def test_drop_incomplete_rows():
    ds = build_dataset(
        numeric={"a": [1.0, 2.0, 3.0], "b": [4.0, np.nan, 6.0]},
        labels=[0, 1, 1],
        missing={"b": [False, True, False]},
    )
    out = drop_incomplete_rows(ds)
    assert out.n_rows == 2
    assert out.values["a"].tolist() == [1.0, 3.0]
    assert out.labels.tolist() == [0, 1]


def test_drop_incomplete_rows_empty_result_errors():
    ds = build_dataset(
        numeric={"a": [np.nan, np.nan]},
        labels=[0, 1],
        missing={"a": [True, True]},
    )
    with pytest.raises(ValidationError):
        drop_incomplete_rows(ds)


def test_summarize_prevalence_exact():
    n = 10000
    labels = np.zeros(n, dtype=np.uint8)
    labels[:2365] = 1
    ds = build_dataset(numeric={"a": np.zeros(n)}, labels=labels)
    s = summarize(ds)
    assert s.prevalence == 2365 / 10000
    assert s.n_rows == n
    assert s.missing_rate == {"a": 0.0}


def test_summarize_missing_rate():
    ds = build_dataset(
        numeric={"a": [1.0, np.nan, np.nan, 4.0]},
        labels=[0, 0, 1, 1],
        missing={"a": [False, True, True, False]},
    )
    assert summarize(ds).missing_rate["a"] == 0.5


def test_split_folds_sizes_11_rows():
    fa = split_folds(11, 5, seed=3)
    sizes = sorted(np.bincount(fa.fold_of_row, minlength=5).tolist())
    assert sizes == [2, 2, 2, 2, 3]


def test_split_folds_partition_property():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(5, 400))
        k = int(rng.integers(2, min(n, 10) + 1))
        fa = split_folds(n, k, seed=int(rng.integers(0, 2**32)))
        counts = np.bincount(fa.fold_of_row, minlength=k)
        assert counts.sum() == n
        assert counts.max() - counts.min() <= 1


def test_split_folds_deterministic():
    a = split_folds(100, 5, seed=42)
    b = split_folds(100, 5, seed=42)
    assert np.array_equal(a.fold_of_row, b.fold_of_row)
    c = split_folds(100, 5, seed=43)
    assert not np.array_equal(a.fold_of_row, c.fold_of_row)


def test_split_folds_stratified_balance():
    labels = np.array([1] * 10 + [0] * 90, dtype=np.uint8)
    fa = split_folds(100, 5, seed=1, labels=labels, stratified=True)
    for f in range(5):
        assert labels[fa.fold_indices(f)].sum() == 2


def test_split_folds_validation():
    with pytest.raises(ValidationError):
        split_folds(10, 1, seed=0)
    with pytest.raises(ValidationError):
        split_folds(3, 5, seed=0)


def test_take_rows_copies():
    ds = build_dataset(numeric={"a": [1.0, 2.0, 3.0]}, labels=[0, 1, 0])
    sub = take_rows(ds, np.array([2, 0]))
    assert sub.values["a"].tolist() == [3.0, 1.0]
    sub.values["a"][0] = 99.0
    assert ds.values["a"][2] == 3.0


def test_design_matrix_requires_complete():
    ds = build_dataset(
        numeric={"a": [1.0, np.nan]}, labels=[0, 1], missing={"a": [False, True]}
    )
    with pytest.raises(ValidationError, match="impute or drop"):
        design_matrix(ds)


def test_design_matrix_embeds_codes():
    ds = build_dataset(
        numeric={"a": [1.0, 2.0]},
        categorical={"c": ([1, 0], ["no", "yes"])},
        labels=[0, 1],
    )
    x, kinds, names = design_matrix(ds)
    assert x.tolist() == [[1.0, 1.0], [2.0, 0.0]]
    assert kinds == [NUMERIC, CATEGORICAL]
    assert names == ["a", "c"]
