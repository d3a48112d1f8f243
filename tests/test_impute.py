from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from conftest import build_dataset
from icui.boost import BoostParams, predict_margin
from icui.errors import ValidationError
from icui.impute import (
    ALGORITHMS,
    ImputeParams,
    _new_predictor,
    _table,
    derive_groups,
    fit_column,
    fit_imputation,
    impute,
    select_imputer,
)
from icui.rng import stable_seed

FAST_BOOST = BoostParams(n_rounds=20, max_depth=2, eta=0.3)


# ---------------------------------------------------------------------- groups


def test_derive_groups_strips_one_summary_suffix():
    groups = derive_groups(["hr_min", "hr_max", "bp_avg", "glucose_diff", "age", "_min"])
    assert groups == {
        "hr_min": "hr",
        "hr_max": "hr",
        "bp_avg": "bp",
        "glucose_diff": "glucose",
        "age": "age",
        "_min": "_min",  # nothing left after stripping, keep as is
    }


def test_derive_groups_strips_only_the_last_suffix():
    assert derive_groups(["a_min_max"]) == {"a_min_max": "a_min"}


# ------------------------------------------------------------------ a0 entries


def test_a0_median_is_lower_middle():
    ds = build_dataset(
        numeric={"x": [3.0, 1.0, 2.0, 4.0]},
        missing={"x": [False, False, False, False]},
    )
    model = fit_imputation(ds, ImputeParams(algorithm="a0"))
    assert model.columns["x"].fallback == 2.0


def test_a0_median_odd_count_and_ignores_missing():
    ds = build_dataset(
        numeric={"x": [5.0, 1.0, 9.0, 100.0]},
        missing={"x": [False, False, False, True]},
    )
    model = fit_imputation(ds, ImputeParams(algorithm="a0"))
    assert model.columns["x"].fallback == 5.0


def test_a0_mode_prefers_lowest_code_on_tie():
    ds = build_dataset(categorical={"c": ([0, 1, 0, 1, 2], ["u", "v", "w"])})
    model = fit_imputation(ds, ImputeParams(algorithm="a0"))
    assert model.columns["c"].fallback == 0.0


def test_a0_requires_observed_values():
    ds = build_dataset(numeric={"x": [np.nan, np.nan]}, missing={"x": [True, True]})
    with pytest.raises(ValidationError, match="no observed"):
        fit_imputation(ds, ImputeParams(algorithm="a0"))


def _all_missing_feature_dataset(target_observed):
    rng = np.random.default_rng(2)
    n = 40
    t_miss = np.arange(n) >= target_observed
    return build_dataset(
        numeric={"t": rng.standard_normal(n), "p": rng.standard_normal(n), "dead": np.full(n, np.nan)},
        missing={"t": t_miss, "dead": np.ones(n, dtype=bool)},
    )


def test_model_entry_needs_the_statistics_of_its_predictors():
    ds = _all_missing_feature_dataset(target_observed=30)
    with pytest.raises(ValidationError, match="column 'dead' has no observed values; cannot impute"):
        fit_column(ds, "t", "a1", boost=FAST_BOOST, min_rows=10)


def test_a0_fallback_reads_only_the_target_statistic():
    # under min_rows no predictor is made, so the all-missing column is never read
    ds = _all_missing_feature_dataset(target_observed=5)
    entry = fit_column(ds, "t", "a1", boost=FAST_BOOST, min_rows=10)
    assert entry.algorithm == "a0" and entry.predictor is None
    assert entry.note == "a1 -> a0: 5 complete cases < min_rows=10"
    observed = ds.values["t"][:5]
    assert entry.fallback == np.sort(observed)[2]


def test_a0_impute_fills_and_leaves_observed_bits_alone():
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(30)
    mask = rng.random(30) < 0.3
    codes = rng.integers(0, 3, 30)
    cmask = rng.random(30) < 0.3
    ds = build_dataset(
        numeric={"x": vals},
        categorical={"c": (codes, ["a", "b", "c"])},
        missing={"x": mask, "c": cmask},
    )
    out = impute(ds, fit_imputation(ds, ImputeParams(algorithm="a0")))
    assert not out.missing["x"].any() and not out.missing["c"].any()
    assert out.values["x"][~mask].tobytes() == vals[~mask].tobytes()
    assert out.values["c"][~cmask].tobytes() == codes[~cmask].astype(np.int64).tobytes()
    med = np.sort(vals[~mask])[(np.count_nonzero(~mask) - 1) // 2]
    assert (out.values["x"][mask] == med).all()


# --------------------------------------------------------------- model entries


def _grouped_dataset(n=80, seed=1, gap_rate=0.2):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(n)
    hr_min = base + 0.1 * rng.standard_normal(n)
    hr_max = base + 1.0 + 0.1 * rng.standard_normal(n)
    spo2 = rng.standard_normal(n)
    age = rng.uniform(20, 90, n)
    miss_min = rng.random(n) < gap_rate
    miss_max = rng.random(n) < gap_rate
    return build_dataset(
        numeric={"hr_min": hr_min, "hr_max": hr_max, "spo2": spo2, "age": age},
        missing={"hr_min": miss_min, "hr_max": miss_max},
    )


def test_a1_uses_every_other_column():
    ds = _grouped_dataset()
    entry = fit_column(ds, "hr_min", "a1", boost=FAST_BOOST, min_rows=10)
    assert entry.algorithm == "a1"
    assert entry.predictor.feature_names == ["hr_max", "spo2", "age"]


def test_a1_falls_back_below_min_rows():
    ds = _grouped_dataset(n=30)
    entry = fit_column(ds, "hr_min", "a1", boost=FAST_BOOST, min_rows=50)
    assert entry.algorithm == "a0"
    assert "a1 -> a0" in entry.note
    assert "min_rows=50" in entry.note


def test_a2_excludes_same_group_columns():
    ds = _grouped_dataset()
    entry = fit_column(ds, "hr_min", "a2", boost=FAST_BOOST, min_rows=10)
    assert entry.algorithm == "a2"
    assert entry.predictor_grouped.feature_names == ["spo2", "age"]
    assert entry.siblings == ["hr_max"]


def test_a2_exclusion_holds_for_every_grouped_target():
    ds = _grouped_dataset()
    groups = derive_groups(ds.feature_names())
    for target in ds.feature_names():
        entry = fit_column(ds, target, "a2", boost=FAST_BOOST, min_rows=10)
        if entry.algorithm != "a2":
            continue
        used = set(entry.predictor_grouped.feature_names)
        same_group = {n for n in ds.feature_names() if groups[n] == groups[target]}
        assert used.isdisjoint(same_group)


def test_a3_routes_rows_by_sibling_missingness():
    ds = _grouped_dataset(n=100, seed=3, gap_rate=0.25)
    model = fit_imputation(ds, ImputeParams(algorithm="a3", min_rows=10, boost=FAST_BOOST))
    entry = model.columns["hr_min"]
    assert entry.algorithm == "a3"
    rows = np.flatnonzero(ds.missing["hr_min"])
    sibling_gap = ds.missing["hr_max"][rows]
    assert sibling_gap.any() and (~sibling_gap).any()  # both routes exercised
    got = entry.predict(ds, rows)
    a1_pred = entry.predictor.predict(ds, rows)
    a2_pred = entry.predictor_grouped.predict(ds, rows)
    assert np.array_equal(got, np.where(sibling_gap, a2_pred, a1_pred))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_fit_column_fits_each_algorithm_as_fit_imputation_does(algorithm):
    ds = _grouped_dataset(n=100, seed=3, gap_rate=0.25)
    seed = stable_seed(0, "impute", "hr_min")
    entry = fit_column(ds, "hr_min", algorithm, boost=FAST_BOOST, min_rows=10, seed=seed)
    assert entry.algorithm == algorithm and entry.note is None
    models = {"a0": (False, False), "a1": (True, False), "a2": (False, True), "a3": (True, True)}
    assert (entry.predictor is not None, entry.predictor_grouped is not None) == models[algorithm]
    assert entry.siblings == (["hr_max"] if algorithm in ("a2", "a3") else [])
    model = fit_imputation(ds, ImputeParams(algorithm=algorithm, min_rows=10, boost=FAST_BOOST))
    rows = np.flatnonzero(ds.missing["hr_min"])
    assert entry.fallback == model.columns["hr_min"].fallback
    assert entry.predict(ds, rows).tobytes() == model.columns["hr_min"].predict(ds, rows).tobytes()


def test_fit_column_rejects_an_unknown_algorithm():
    with pytest.raises(ValidationError, match="unknown imputation algorithm 'select'"):
        fit_column(_grouped_dataset(), "hr_min", "select")


def test_a3_entry_without_an_a2_model_gives_sibling_gap_rows_the_fallback():
    ds = _grouped_dataset(n=100, seed=3, gap_rate=0.25)
    entry = replace(fit_column(ds, "hr_min", "a3", boost=FAST_BOOST, min_rows=10), predictor_grouped=None)
    rows = np.flatnonzero(ds.missing["hr_min"])
    sibling_gap = ds.missing["hr_max"][rows]
    assert sibling_gap.any() and (~sibling_gap).any()
    want = np.where(sibling_gap, entry.fallback, entry.predictor.predict(ds, rows))
    assert np.array_equal(entry.predict(ds, rows), want)


def test_a2_entry_routes_every_row_to_its_model():
    ds = _grouped_dataset(n=100, seed=3, gap_rate=0.25)
    entry = fit_column(ds, "hr_min", "a2", boost=FAST_BOOST, min_rows=10)
    rows = np.flatnonzero(ds.missing["hr_min"])
    sibling_gap = ds.missing["hr_max"][rows]
    assert sibling_gap.any() and (~sibling_gap).any()  # rows a3 would send either way
    assert np.array_equal(entry.predict(ds, rows), entry.predictor_grouped.predict(ds, rows))


def test_predictor_gaps_filled_with_a0_at_apply_time():
    rng = np.random.default_rng(4)
    n = 60
    p = rng.standard_normal(n)
    t = 2.0 * p + 0.05 * rng.standard_normal(n)
    t_miss = np.zeros(n, dtype=bool)
    t_miss[:5] = True
    p_miss = np.zeros(n, dtype=bool)
    p_miss[:2] = True  # rows where target AND predictor are missing
    ds = build_dataset(numeric={"t": t, "p": p}, missing={"t": t_miss, "p": p_miss})
    entry = fit_column(ds, "t", "a1", boost=FAST_BOOST, min_rows=10)
    pred = entry.predictor.predict(ds, np.array([0]))
    med_p = np.sort(p[~p_miss])[(np.count_nonzero(~p_miss) - 1) // 2]
    expect = predict_margin(entry.predictor.regressor, np.array([[med_p]]))
    assert pred[0] == expect[0]


def test_categorical_imputation_returns_valid_codes():
    rng = np.random.default_rng(6)
    n = 90
    x = rng.uniform(-1, 2, n)
    codes = np.digitize(x, [0.0, 1.0])  # 0, 1, 2 by range
    cmask = rng.random(n) < 0.2
    ds = build_dataset(
        numeric={"x": x},
        categorical={"c": (codes, ["lo", "mid", "hi"])},
        missing={"c": cmask},
    )
    model = fit_imputation(ds, ImputeParams(algorithm="a1", min_rows=10, boost=FAST_BOOST))
    out = impute(ds, model)
    filled = out.values["c"][cmask]
    assert filled.min() >= 0 and filled.max() <= 2
    # the signal is sharp; most filled codes should match the generating rule
    assert (filled == codes[cmask]).mean() > 0.7


def test_one_vs_rest_classifiers_cover_the_distinct_observed_codes():
    """A categorical target's codes, with ties and gaps, as np.unique lists them."""
    codes = np.array([3, 0, 3, 5, 0, 5, 5, 3, 1] * 6)
    gap = np.zeros(codes.size, dtype=bool)
    gap[codes == 1] = True  # code 1 is never observed
    ds = build_dataset(
        numeric={"a": np.arange(codes.size, dtype=np.float64)},
        categorical={"g": (codes, list("pqrstu"))},
        missing={"g": gap},
    )
    predictor = _new_predictor(_table(ds), "g", ["a"], seed=0)
    assert [c for c, _ in predictor.classifiers] == np.unique(codes[~gap]).tolist() == [0, 3, 5]
    assert all(model is None for _, model in predictor.classifiers)  # made unfitted
    assert len(predictor.jobs) == 3


# ------------------------------------------------------------------- selection


def test_copy_column_selection_never_picks_a0():
    rng = np.random.default_rng(13)
    n = 90
    base = rng.standard_normal(n)
    dup = base.copy()
    mask = np.zeros(n, dtype=bool)
    mask[rng.choice(n, 15, replace=False)] = True
    ds = build_dataset(numeric={"base": base, "dup": dup}, missing={"dup": mask})
    for seed in range(10):
        params = ImputeParams(algorithm="select", seed=seed, min_rows=20, boost=FAST_BOOST)
        chosen, rows = select_imputer(ds, "dup", params=params)
        assert chosen != "a0"
        assert len(rows) == 4
        assert sum(r.chosen for r in rows) == 1
        assert all(r.metric == "mse" for r in rows)


def test_copy_column_selection_categorical_accuracy():
    rng = np.random.default_rng(21)
    n = 90
    codes = rng.integers(0, 3, n)
    mask = np.zeros(n, dtype=bool)
    mask[rng.choice(n, 12, replace=False)] = True
    ds = build_dataset(
        categorical={"base": (codes, ["a", "b", "c"]), "dup": (codes.copy(), ["a", "b", "c"])},
        missing={"dup": mask},
    )
    params = ImputeParams(algorithm="select", seed=0, min_rows=20, boost=FAST_BOOST)
    chosen, rows = select_imputer(ds, "dup", params=params)
    assert chosen != "a0"
    assert all(r.metric == "accuracy" for r in rows)


def test_selection_with_too_few_observed_rows_falls_back():
    vals = np.arange(12.0)
    mask = np.ones(12, dtype=bool)
    mask[:8] = False  # 8 observed < outer_k * inner_k = 9
    ds = build_dataset(numeric={"x": vals, "y": np.ones(12)}, missing={"x": mask})
    chosen, rows = select_imputer(ds, "x")
    assert chosen == "a0"
    assert rows == []
    model = fit_imputation(ds, ImputeParams(algorithm="select"))
    assert model.columns["x"].algorithm == "a0"
    assert any("too few observed rows" in w for w in model.warnings)


def test_tie_breaks_toward_lower_algorithm_id():
    # constant target: every algorithm predicts the constant, all scores tie
    n = 40
    ds = build_dataset(
        numeric={"x": np.full(n, 3.0), "y": np.arange(float(n))},
        missing={"x": [i < 5 for i in range(n)]},
    )
    chosen, rows = select_imputer(
        ds, "x", params=ImputeParams(algorithm="select", min_rows=5, boost=FAST_BOOST)
    )
    assert chosen == "a0"
    scores = {r.algorithm: r.mean_score for r in rows}
    assert scores["a0"] == scores["a1"] == scores["a2"] == scores["a3"]


# ------------------------------------------------------------------- model fit


def test_fit_imputation_covers_complete_columns():
    ds = _grouped_dataset()
    model = fit_imputation(ds, ImputeParams(algorithm="a1", min_rows=10, boost=FAST_BOOST))
    assert set(model.columns) == set(ds.feature_names())
    assert model.columns["age"].algorithm == "a0"  # complete at fit time
    assert model.columns["hr_min"].algorithm == "a1"


def test_fit_imputation_handles_apply_time_gaps_in_complete_columns():
    ds = _grouped_dataset()
    model = fit_imputation(ds, ImputeParams(algorithm="a0"))
    fresh = _grouped_dataset(seed=9)
    fresh.missing["age"][:4] = True
    out = impute(fresh, model)
    assert not out.missing["age"].any()
    assert (out.values["age"][:4] == model.columns["age"].fallback).all()


def test_impute_observed_cells_bitwise_identical_all_algorithms():
    ds = _grouped_dataset(n=70, seed=5)
    for alg in ("a0", "a1", "a2", "a3"):
        model = fit_imputation(ds, ImputeParams(algorithm=alg, min_rows=10, boost=FAST_BOOST))
        out = impute(ds, model)
        for name in ds.feature_names():
            keep = ~ds.missing[name]
            assert out.values[name][keep].tobytes() == ds.values[name][keep].tobytes()
            assert not out.missing[name].any()


def test_impute_deterministic_per_seed():
    ds = _grouped_dataset(n=70, seed=8)
    p = ImputeParams(algorithm="a1", min_rows=10, seed=4, boost=FAST_BOOST)
    out1 = impute(ds, fit_imputation(ds, p))
    out2 = impute(ds, fit_imputation(ds, p))
    for name in ds.feature_names():
        assert out1.values[name].tobytes() == out2.values[name].tobytes()


def test_impute_rejects_uncovered_column():
    ds = _grouped_dataset()
    model = fit_imputation(ds, ImputeParams(algorithm="a0"))
    del model.columns["hr_min"]
    with pytest.raises(ValidationError, match="does not cover"):
        impute(ds, model)


def test_impute_params_validation():
    with pytest.raises(ValidationError):
        ImputeParams(algorithm="a9")
    assert ImputeParams().fit_on_all is False


@pytest.mark.parametrize("field", ["outer_k", "inner_k"])
def test_impute_params_reject_fold_counts_below_two(field):
    with pytest.raises(ValidationError, match=f"{field} must be >= 2, got 1"):
        ImputeParams(**{field: 1})
    ImputeParams(**{field: 2})
