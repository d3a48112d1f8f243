import json
import math

import numpy as np
import pytest

from conftest import column
from icui.boost import sigmoid
from icui.data import CATEGORICAL, NUMERIC, load_csv, summarize
from icui.errors import ValidationError
from icui.forest import ForestParams, fit_forest, forest_importance
from icui.impute import derive_groups
from icui.synth import SynthSpec, feature_layout, generate, signal_betas, write_synth


def test_signal_betas_alternate_and_span():
    b = signal_betas(10)
    assert b[0] == 1.5 and b[-1] == -0.8
    assert (np.sign(b) == np.where(np.arange(10) % 2 == 0, 1, -1)).all()
    mags = np.abs(b)
    assert np.allclose(mags, np.linspace(1.5, 0.8, 10))


def test_default_layout_names():
    names = [n for n, _ in feature_layout(SynthSpec())]
    assert len(names) == 66 and len(set(names)) == 66
    assert names[:10] == [f"s{i:02d}" for i in range(1, 11)]
    assert names[10:18] == [
        "v01_min", "v01_max", "v02_min", "v02_max",
        "v03_min", "v03_max", "v04_min", "v04_max",
    ]
    assert names[18] == "n01" and names[61] == "n44"
    assert names[62:] == ["c01", "c02", "c03", "c04"]
    # the pair names group together for the imputation module
    groups = derive_groups(names)
    assert groups["v01_min"] == groups["v01_max"] == "v01"


def test_layout_small_feature_budget():
    names = [n for n, _ in feature_layout(SynthSpec(n_features=6, n_signal=3))]
    assert len(names) == 6
    assert names[:3] == ["s01", "s02", "s03"]


def test_prevalence_within_one_positive_of_target():
    for seed, n, prev in [(0, 50, 0.3), (1, 173, 0.07), (2, 400, 0.5), (3, 991, 0.9)]:
        spec = SynthSpec(n_rows=n, n_features=12, n_signal=4, prevalence=prev, seed=seed)
        ds, truth = generate(spec)
        count = int(ds.labels.sum())
        assert abs(count - n * prev) <= 1.0 + 1e-9
        assert truth["realized_prevalence"] == count / n


def test_prevalence_contract_at_20k():
    ds, truth = generate(SynthSpec(n_rows=20000, prevalence=0.2365, seed=7))
    assert 0.2315 <= truth["realized_prevalence"] <= 0.2415


def test_intercept_hits_target_mean_probability():
    spec = SynthSpec(n_rows=3000, n_features=12, n_signal=5, seed=4)
    ds, truth = generate(spec)
    z = np.zeros(ds.n_rows)
    for name in truth["signal_features"]:
        z += truth["betas"][name] * column(ds, name)
    assert float(sigmoid(truth["intercept"] + z).mean()) == pytest.approx(0.2365, abs=1e-9)


def test_class_conditional_shift_matches_beta_sign():
    ds, truth = generate(SynthSpec(n_rows=4000, n_features=20, n_signal=6, seed=2))
    y = ds.labels
    for name in truth["signal_features"]:
        shift = column(ds, name)[y == 1].mean() - column(ds, name)[y == 0].mean()
        assert math.copysign(1, shift) == math.copysign(1, truth["betas"][name])
        assert abs(truth["effect_sizes"][name]) > 0.25
    for name, d in truth["effect_sizes"].items():
        if name not in truth["signal_features"]:
            assert abs(d) < 0.15  # noise stays flat at this n


def test_pair_columns_are_ordered_and_correlated():
    ds, _ = generate(SynthSpec(n_rows=500, seed=3))
    lo, hi = column(ds, "v02_min"), column(ds, "v02_max")
    assert (lo <= hi).all()
    assert np.corrcoef(lo, hi)[0, 1] > 0.5


def test_missing_rate_zero_is_complete():
    ds, _ = generate(SynthSpec(n_rows=200, seed=0))
    assert not np.isnan(ds.x).any()


def test_missing_rate_holds_and_is_mcar_flagged():
    spec = SynthSpec(n_rows=2000, missing_rate=0.3, seed=5)
    ds, truth = generate(spec)
    total = int(np.isnan(ds.x).sum())
    rate = total / (spec.n_rows * spec.n_features)
    assert abs(rate - 0.3) < 0.02
    assert truth["missing_rate"] == 0.3
    # NaN marks a missing cell in numeric and categorical columns alike; observed codes stay codes
    assert np.isnan(column(ds, "s01")).any() and np.isnan(column(ds, "c01")).any()
    codes = column(ds, "c01")[~np.isnan(column(ds, "c01"))]
    assert set(codes.tolist()) == {0.0, 1.0, 2.0}


def test_write_synth_deterministic(tmp_path):
    spec = SynthSpec(n_rows=300, n_features=15, n_signal=5, missing_rate=0.1, seed=1)
    p1, t1 = write_synth(spec, str(tmp_path / "one"))
    p2, t2 = write_synth(spec, str(tmp_path / "two"))
    assert open(p1, "rb").read() == open(p2, "rb").read()
    assert open(t1, "rb").read() == open(t2, "rb").read()


def test_seed_changes_output(tmp_path):
    a, _ = write_synth(SynthSpec(n_rows=100, n_features=8, n_signal=2, seed=1), str(tmp_path / "a"))
    b, _ = write_synth(SynthSpec(n_rows=100, n_features=8, n_signal=2, seed=2), str(tmp_path / "b"))
    assert open(a, "rb").read() != open(b, "rb").read()


def test_round_trip_through_loader(tmp_path):
    spec = SynthSpec(n_rows=250, missing_rate=0.15, seed=6)
    csv_path, truth_path = write_synth(spec, str(tmp_path))
    ds = load_csv(csv_path)
    truth = json.loads(open(truth_path).read())
    assert ds.n_rows == 250 and len(ds.names) == 66
    assert summarize(ds).prevalence == truth["realized_prevalence"]
    kinds = dict(zip(ds.names, ds.kinds))
    assert kinds["s01"] == NUMERIC and kinds["c01"] == CATEGORICAL
    src, _ = generate(spec)
    for name in src.names:
        assert np.array_equal(np.isnan(column(ds, name)), np.isnan(column(src, name)))
        keep = ~np.isnan(column(src, name))
        assert column(ds, name)[keep].tobytes() == column(src, name)[keep].tobytes()


def test_spec_validation():
    with pytest.raises(ValidationError):
        SynthSpec(prevalence=0.0)
    with pytest.raises(ValidationError):
        SynthSpec(prevalence=1.0)
    with pytest.raises(ValidationError):
        SynthSpec(n_signal=67)
    with pytest.raises(ValidationError):
        SynthSpec(n_rows=0)
    with pytest.raises(ValidationError):
        SynthSpec(missing_rate=1.0)


def test_forest_recovers_planted_signals_smoke():
    ds, truth = generate(SynthSpec(n_rows=1200, seed=7))
    model = fit_forest(ds, ForestParams(n_trees=30, max_depth=10, min_samples_leaf=10), seed=7)
    profile = forest_importance(model)
    order = np.argsort(-profile.scores)
    top10 = {profile.names[i] for i in order[:10]}
    hits = len(top10 & set(truth["signal_features"]))
    assert hits >= 6
