from __future__ import annotations

import numpy as np
import pytest

from conftest import build_dataset
from icui.boost import BoostParams
from icui.errors import MetricError, ValidationError
from icui.evaluate import (
    MODEL_BOOSTED,
    MODEL_RF,
    ModelSpec,
    aggregate,
    auprc,
    _midranks,
    auroc,
    run_cv,
)
from icui.forest import ForestParams
from icui.impute import ImputeParams


# ----------------------------------------------------------------------- auroc


def _concordance(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    diff = pos[:, None] - neg[None, :]
    wins = (diff > 0).sum() + 0.5 * (diff == 0).sum()
    return wins / (pos.size * neg.size)


def test_midranks_match_the_mean_rank_of_each_tied_block():
    rng = np.random.default_rng(11)
    for n in (1, 2, 7, 300):
        scores = rng.integers(0, max(1, n // 10), size=n) / 4.0  # many ties
        # definition: 1 + the count of smaller scores, plus half the count of other equal ones
        smaller = (scores[None, :] < scores[:, None]).sum(axis=1)
        equal = (scores[None, :] == scores[:, None]).sum(axis=1)
        want = [1.0 + lo + (eq - 1) / 2.0 for lo, eq in zip(smaller.tolist(), equal.tolist())]
        assert _midranks(scores).tolist() == want


def test_auroc_worked_example():
    auc, _ = auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
    assert auc == 0.75


def test_auroc_second_worked_example():
    auc, _ = auroc([0.1, 0.2, 0.3, 0.25, 0.4], [0, 0, 0, 1, 1])
    assert auc == pytest.approx(5 / 6, abs=1e-15)


def test_auroc_perfect_and_reversed():
    assert auroc([1, 2, 3, 4], [0, 0, 1, 1])[0] == 1.0
    assert auroc([4, 3, 2, 1], [0, 0, 1, 1])[0] == 0.0


def test_auroc_constant_scores_is_half():
    auc, points = auroc(np.ones(10), [0, 1] * 5)
    assert auc == 0.5
    assert points == [(0.0, 0.0), (1.0, 1.0)]


def test_auroc_matches_pairwise_concordance_500_instances():
    rng = np.random.default_rng(19)
    for trial in range(500):
        n = int(rng.integers(4, 201))
        if trial % 3 == 0:
            scores = rng.integers(0, 8, n).astype(float)  # heavy ties
        else:
            scores = rng.standard_normal(n)
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        auc, _ = auroc(scores, labels)
        assert abs(auc - _concordance(scores, labels)) < 1e-12


def test_auroc_equals_trapezoid_under_roc_polyline():
    rng = np.random.default_rng(29)
    for trial in range(60):
        n = int(rng.integers(5, 120))
        scores = rng.integers(0, 10, n).astype(float)
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        auc, points = auroc(scores, labels)
        area = sum(
            (x1 - x0) * (y0 + y1) / 2.0
            for (x0, y0), (x1, y1) in zip(points, points[1:])
        )
        assert abs(auc - area) < 1e-12


def test_roc_points_monotone_and_anchored():
    scores = [0.9, 0.8, 0.8, 0.4, 0.2, 0.2]
    labels = [1, 1, 0, 1, 0, 0]
    _, points = auroc(scores, labels)
    assert points[0] == (0.0, 0.0)
    assert points[-1] == (1.0, 1.0)
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    assert xs == sorted(xs)
    assert ys == sorted(ys)


def test_auroc_error_cases():
    with pytest.raises(MetricError, match="single class"):
        auroc([0.1, 0.2], [1, 1])
    with pytest.raises(MetricError, match="empty"):
        auroc([], [])
    with pytest.raises(ValidationError):
        auroc([0.1, np.nan], [0, 1])
    with pytest.raises(ValidationError):
        auroc([0.1, 0.2], [0, 2])
    with pytest.raises(ValidationError):
        auroc([0.1, 0.2, 0.3], [0, 1])


# ----------------------------------------------------------------------- auprc


def test_auprc_worked_example():
    ap, points = auprc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
    assert ap == pytest.approx(5 / 6, abs=1e-15)
    assert points[0] == (0.0, 1.0)


def test_auprc_constant_scorer_equals_prevalence_exactly():
    labels = np.array([0, 0, 0, 1, 0, 1, 0, 0, 0, 0])
    ap, points = auprc(np.full(10, 0.5), labels)
    assert ap == 2 / 10
    assert points == [(0.0, 1.0), (1.0, 0.2)]


def test_auprc_perfect_model():
    ap, _ = auprc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
    assert ap == 1.0


def test_auprc_requires_positives():
    with pytest.raises(MetricError, match="no positive"):
        auprc([0.5, 0.6], [0, 0])


def test_auprc_recall_reaches_one():
    rng = np.random.default_rng(3)
    scores = rng.random(50)
    labels = rng.integers(0, 2, 50)
    labels[0] = 1
    _, points = auprc(scores, labels)
    assert points[-1][0] == 1.0
    assert all(0.0 <= p <= 1.0 for _, p in points)


# ------------------------------------------------------------------- aggregate


def test_aggregate_formatting_worked_example():
    mean, std, text = aggregate([1.0, 0.8])
    assert mean == pytest.approx(0.9)
    assert std == pytest.approx(0.1414213562, abs=1e-9)
    assert text == "0.900 ± 0.141"


def test_aggregate_rounds_half_up():
    mean, _, text = aggregate([0.911, 0.912])
    assert mean == pytest.approx(0.9115)
    assert text == "0.912 ± 0.001"


def test_aggregate_uses_sample_std():
    _, std, _ = aggregate([1.0, 2.0, 3.0])
    assert std == 1.0  # k-1 divisor


def test_aggregate_needs_two_values():
    with pytest.raises(ValidationError):
        aggregate([0.5])


# ------------------------------------------------------------------- model spec


def test_model_spec_defaults_and_validation():
    rf = ModelSpec(MODEL_RF)
    assert isinstance(rf.params, ForestParams)
    boosted = ModelSpec(MODEL_BOOSTED)
    assert isinstance(boosted.params, BoostParams)
    with pytest.raises(ValidationError):
        ModelSpec("svm")


# ---------------------------------------------------------------------- run_cv


def _cv_dataset(n=100, seed=2):
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(n)
    x1 = rng.standard_normal(n)
    x2 = rng.standard_normal(n)
    y = ((1.5 * x0 - x1 + 0.3 * rng.standard_normal(n)) > 0).astype(int)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    return build_dataset(numeric={"x0": x0, "x1": x1, "x2": x2}, labels=y)


def test_run_cv_rf_end_to_end():
    ds = _cv_dataset()
    spec = ModelSpec(MODEL_RF, ForestParams(n_trees=10, max_depth=4, min_samples_leaf=2))
    res = run_cv(ds, [spec], k=5, seed=0, clusters_k=2)[spec.kind]
    s = res.summary
    assert s.k == 5 and s.model == MODEL_RF
    assert s.n_valid_folds == 5
    assert sum(m.n_test for m in s.folds) == 100
    assert s.baseline == float(ds.labels.sum() / 100)
    assert s.auroc_mean is not None and 0.5 < s.auroc_mean <= 1.0
    assert "±" in s.auroc_formatted
    assert res.attributions == [None] * 5
    for prof in res.importances:
        assert prof is not None and prof.normalized
        assert prof.scores.sum() == pytest.approx(1.0, abs=1e-9)
    for rep in res.cluster_reports:
        assert rep is not None and rep.k == 2
        assert rep.ranks[0].total_importance >= rep.ranks[1].total_importance


def test_run_cv_boosted_attributions_on_test_rows():
    ds = _cv_dataset(n=60)
    spec = ModelSpec(MODEL_BOOSTED, BoostParams(n_rounds=8, max_depth=2, eta=0.3))
    res = run_cv(ds, [spec], k=3, seed=1, clusters_k=2)[spec.kind]
    assert res.summary.n_valid_folds == 3
    for fold, attr in enumerate(res.attributions):
        assert attr is not None
        n_test = res.summary.folds[fold].n_test
        assert attr.phi.shape == (n_test, 3)
        assert attr.output_space == "margin"


def test_run_cv_deterministic_and_thread_invariant():
    # two runs give the same metrics and importances (trees are fitted in one thread)
    ds = _cv_dataset(n=80)
    spec = ModelSpec(MODEL_RF, ForestParams(n_trees=6, max_depth=3))
    a = run_cv(ds, [spec], k=4, seed=7, clusters_k=2)[spec.kind]
    b = run_cv(ds, [spec], k=4, seed=7, clusters_k=2)[spec.kind]
    assert [m.auroc for m in a.summary.folds] == [m.auroc for m in b.summary.folds]
    assert [m.auprc for m in a.summary.folds] == [m.auprc for m in b.summary.folds]
    assert a.summary.auroc_formatted == b.summary.auroc_formatted
    for pa, pb in zip(a.importances, b.importances):
        assert np.array_equal(pa.scores, pb.scores)


def test_run_cv_seed_changes_folds():
    ds = _cv_dataset(n=80)
    spec = ModelSpec(MODEL_RF, ForestParams(n_trees=4, max_depth=3))
    a = run_cv(ds, [spec], k=4, seed=1, clusters_k=2)[spec.kind]
    b = run_cv(ds, [spec], k=4, seed=2, clusters_k=2)[spec.kind]
    assert [m.auroc for m in a.summary.folds] != [m.auroc for m in b.summary.folds]


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_run_cv_flags_single_class_test_folds():
    labels = np.zeros(15, dtype=int)
    labels[0] = 1
    ds = build_dataset(numeric={"a": np.arange(15.0)}, labels=labels)
    spec = ModelSpec(MODEL_RF, ForestParams(n_trees=3, max_depth=2))
    res = run_cv(ds, [spec], k=5, seed=0, clusters_k=2)[spec.kind]
    flagged = [m for m in res.summary.folds if m.error is not None]
    assert len(flagged) == 4  # only the fold holding the lone positive scores
    assert res.summary.n_valid_folds == 1
    assert res.summary.auroc_mean is None
    assert res.summary.auroc_formatted is None


def test_run_cv_boosted_flags_degenerate_training():
    labels = np.zeros(15, dtype=int)
    labels[0] = 1
    ds = build_dataset(numeric={"a": np.arange(15.0)}, labels=labels)
    spec = ModelSpec(MODEL_BOOSTED, BoostParams(n_rounds=2, max_depth=1))
    res = run_cv(ds, [spec], k=5, seed=0, clusters_k=2)[spec.kind]
    fit_failures = [m for m in res.summary.folds if m.error and "fit failed" in m.error]
    assert len(fit_failures) == 1  # the fold whose training set lost the lone positive
    assert res.summary.n_valid_folds == 0
    assert sum(1 for a in res.attributions if a is not None) == 4


def test_run_cv_with_imputation():
    ds = _cv_dataset(n=60)
    rng = np.random.default_rng(0)
    mask = rng.random(60) < 0.2
    ds.values["x2"][mask] = np.nan
    ds.missing["x2"] = mask
    spec = ModelSpec(MODEL_RF, ForestParams(n_trees=4, max_depth=3))
    res = run_cv(
        ds, [spec], k=3, seed=0, impute_cfg=ImputeParams(algorithm="a0"), clusters_k=2
    )[spec.kind]
    assert res.summary.n_valid_folds == 3
    assert res.summary.auroc_mean is not None


def test_run_cv_requires_labels():
    ds = build_dataset(numeric={"a": [1.0, 2.0]})
    with pytest.raises(ValidationError):
        run_cv(ds, [ModelSpec(MODEL_RF)], k=2)
