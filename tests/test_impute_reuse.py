"""Each imputer model is fitted once: per selection cell and per CV fold."""

from __future__ import annotations

import importlib
import json

import numpy as np
import pytest

from conftest import build_dataset
from impute_oracle import select_imputer_reference
from icui.boost import BoostParams
from icui.cli import cli_main
from icui.errors import ValidationError
from icui.evaluate import MODEL_RF, ModelSpec, run_cv
from icui.forest import ForestParams
from icui.impute import ImputeParams, select_imputer

# `icui.impute` as an attribute of the package is the function; the tests
# patch names of the module.
impute_mod = importlib.import_module("icui.impute")

FAST_BOOST = BoostParams(n_rounds=4, max_depth=2, eta=0.3)


def _grouped_dataset(n=80, seed=1, gap_rate=0.2):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(n)
    return build_dataset(
        numeric={
            "hr_min": base + 0.1 * rng.standard_normal(n),
            "hr_max": base + 1.0 + 0.1 * rng.standard_normal(n),
            "spo2": rng.standard_normal(n),
            "age": rng.uniform(20, 90, n),
        },
        missing={"hr_min": rng.random(n) < gap_rate, "spo2": rng.random(n) < gap_rate},
    )


def _categorical_dataset(n=90, seed=21):
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 3, n)
    noisy = np.where(rng.random(n) < 0.3, rng.integers(0, 3, n), codes)
    mask = np.zeros(n, dtype=bool)
    mask[rng.choice(n, 12, replace=False)] = True
    return build_dataset(
        numeric={"z_min": codes + rng.standard_normal(n), "z_max": rng.standard_normal(n)},
        categorical={"base": (noisy, ["a", "b", "c"]), "z": (codes, ["a", "b", "c"])},
        missing={"z": mask},
    )


def _fit_log(monkeypatch):
    """(function, jobs) per boosted fit made by icui.impute, lone or batched."""
    log = []
    fit_one = impute_mod.fit_boosted_matrix
    fit_many = impute_mod.fit_boosted_many

    def one(*args, **kwargs):
        log.append(("fit_boosted_matrix", 1))
        return fit_one(*args, **kwargs)

    def many(jobs, *args, **kwargs):
        jobs = list(jobs)
        log.append(("fit_boosted_many", len(jobs)))
        return fit_many(jobs, *args, **kwargs)

    monkeypatch.setattr(impute_mod, "fit_boosted_matrix", one)
    monkeypatch.setattr(impute_mod, "fit_boosted_many", many)
    return log


def _counting(monkeypatch, name):
    calls = []
    fn = getattr(impute_mod, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(impute_mod, name, counted)
    return calls


# ------------------------------------------------------------ oracle agreement


@pytest.mark.parametrize("target", ["hr_min", "hr_max", "spo2", "age"])
@pytest.mark.parametrize("seed", [0, 3])
def test_select_matches_independent_fits_numeric(target, seed):
    ds = _grouped_dataset()
    params = ImputeParams(algorithm="select", seed=seed, min_rows=10, boost=FAST_BOOST)
    assert select_imputer(ds, target, params=params) == select_imputer_reference(ds, target, params=params)


@pytest.mark.parametrize("target", ["z", "base"])
def test_select_matches_independent_fits_categorical(target):
    ds = _categorical_dataset()
    params = ImputeParams(algorithm="select", seed=1, min_rows=10, boost=FAST_BOOST)
    chosen, rows = select_imputer(ds, target, params=params)
    assert rows and all(r.metric == "accuracy" for r in rows)
    assert (chosen, rows) == select_imputer_reference(ds, target, params=params)


def test_select_matches_independent_fits_below_min_rows():
    ds = _grouped_dataset(n=40)
    params = ImputeParams(algorithm="select", min_rows=30, boost=FAST_BOOST)
    assert select_imputer(ds, "hr_min", params=params) == select_imputer_reference(
        ds, "hr_min", params=params
    )


# ------------------------------------------------------------------ fit counts


@pytest.mark.parametrize("target, fits_per_cell", [("spo2", 1), ("hr_min", 2)])
def test_select_fits_each_distinct_model_once_per_cell(monkeypatch, target, fits_per_cell):
    log = _fit_log(monkeypatch)
    params = ImputeParams(algorithm="select", min_rows=10, boost=FAST_BOOST)
    select_imputer(_grouped_dataset(), target, params=params)
    assert sum(jobs for _, jobs in log) == params.outer_k * params.inner_k * fits_per_cell
    # one batch per predictor list: a1's, and a2's when the target has a sibling
    assert [name for name, _ in log] == ["fit_boosted_many"] * fits_per_cell


@pytest.mark.parametrize("target", ["spo2", "hr_min"])
def test_select_computes_a0_statistics_once_per_cell(monkeypatch, target):
    calls = _counting(monkeypatch, "_a0_stats")
    params = ImputeParams(algorithm="select", min_rows=10, boost=FAST_BOOST)
    select_imputer(_grouped_dataset(), target, params=params)
    assert len(calls) == params.outer_k * params.inner_k
    # one table per cell, each over its own fit rows
    assert len({args[1].tobytes() for args in calls}) == len(calls)


def test_final_a3_fit_shares_a1_model_without_siblings(monkeypatch):
    log = _fit_log(monkeypatch)
    ds = _grouped_dataset()
    model = impute_mod.fit_imputation(ds, ImputeParams(algorithm="a3", min_rows=10, boost=FAST_BOOST))
    assert model.columns["spo2"].predictor is model.columns["spo2"].predictor_grouped
    assert model.columns["hr_min"].predictor is not model.columns["hr_min"].predictor_grouped
    assert log == [("fit_boosted_matrix", 1)] * 3  # spo2: one shared model; hr_min: a1 and a2


@pytest.mark.parametrize("algorithm, builds", [("a1", 1), ("a2", 1), ("a3", 2)])
def test_final_fit_builds_only_the_predictors_it_fits(monkeypatch, algorithm, builds):
    # hr_min has the sibling hr_max, so its a1 and a2 predictors differ; its
    # predictors are the ones not reading hr_min, and fitting (no imputing
    # here) is the only step that builds a predictor's input matrix
    calls = _counting(monkeypatch, "_filled")
    params = ImputeParams(algorithm=algorithm, min_rows=10, boost=FAST_BOOST)
    impute_mod.fit_imputation(_grouped_dataset(), params)
    assert sum("hr_min" not in names for _, _, names, _ in calls) == builds


@pytest.mark.parametrize("algorithm", ["a1", "a2", "a3", "select"])
@pytest.mark.parametrize("categorical", [False, True])
def test_final_fits_are_lone_calls_and_selection_fits_are_batched(monkeypatch, algorithm, categorical):
    log = _fit_log(monkeypatch)
    ds = _categorical_dataset() if categorical else _grouped_dataset()
    model = impute_mod.fit_imputation(ds, ImputeParams(algorithm=algorithm, min_rows=10, boost=FAST_BOOST))
    predictors = {
        id(p): p for e in model.columns.values() for p in (e.predictor, e.predictor_grouped) if p is not None
    }
    n_models = sum(
        1 if p.regressor is not None else sum(not isinstance(m, float) for _, m in p.classifiers)
        for p in predictors.values()
    )
    assert n_models > 0 or algorithm == "select"
    # each final model is one lone call, so selection made none
    assert log.count(("fit_boosted_matrix", 1)) == n_models
    batched = {name for name, _ in log} - {"fit_boosted_matrix"}
    assert batched == ({"fit_boosted_many"} if algorithm == "select" else set())


@pytest.mark.parametrize("target, predictors_per_cell", [("spo2", 1), ("hr_min", 2), ("z", 2)])
def test_select_predicts_each_distinct_predictor_once_per_cell(monkeypatch, target, predictors_per_cell):
    calls = []
    predict = impute_mod._Predictor.predict

    def counted(self, ds, rows):
        calls.append((id(self), rows.size))
        return predict(self, ds, rows)

    if target == "z":
        ds, seed = _categorical_dataset(), 1
    else:
        ds, seed = _grouped_dataset(), 0
    params = ImputeParams(algorithm="select", seed=seed, min_rows=10, boost=FAST_BOOST)
    want = select_imputer_reference(ds, target, params=params)
    monkeypatch.setattr(impute_mod._Predictor, "predict", counted)
    assert select_imputer(ds, target, params=params) == want
    assert len(calls) == params.outer_k * params.inner_k * predictors_per_cell
    assert len(set(calls)) == len(calls)  # no predictor ran twice on one cell's rows


def test_run_cv_rejects_repeated_model_kind():
    ds = _grouped_dataset(n=30)
    ds.labels = (ds.values["age"] > 55).astype(np.uint8)
    spec = ModelSpec(MODEL_RF, ForestParams(n_trees=3, max_depth=2))
    with pytest.raises(ValidationError, match="one spec per distinct model kind"):
        run_cv(ds, [spec, spec], k=3)


@pytest.mark.parametrize("fit_on_all, expected", [(False, 3), (True, 1)])
def test_run_all_imputes_once_per_fold_for_both_models(tmp_path, monkeypatch, fit_on_all, expected):
    data_dir = tmp_path / "data"
    assert cli_main([
        "synth", "--rows", "90", "--features", "6", "--signal", "2",
        "--missing-rate", "0.1", "--seed", "4", "--out", str(data_dir),
    ]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "k": 3, "clusters_k": 2,
        "rf": {"n_trees": 3, "max_depth": 2},
        "boosted": {"n_rounds": 2, "max_depth": 2},
        "impute": {"algorithm": "a0", "fit_on_all": fit_on_all},
    }))
    calls = _counting(monkeypatch, "fit_imputation")
    assert cli_main([
        "run-all", "--config", str(cfg), "--model", "both", "--strategy", "impute",
        "--input", str(data_dir / "synth.csv"), "--out", str(tmp_path / "out"),
    ]) == 0
    assert len(calls) == expected
    if fit_on_all:
        assert calls[0][0].n_rows == 90  # the whole table, before the folds are cut
