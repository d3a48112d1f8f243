"""Ranking metrics and the cross-validation driver.

AUROC uses the rank statistic with mid-rank tie correction:

    auroc = (sum of positive mid-ranks - n_pos (n_pos + 1) / 2) / (n_pos n_neg)

which equals the trapezoidal area under the emitted ROC curve (tied score
blocks advance as single diagonal steps).  AUPRC is step-wise average
precision over descending score blocks: sum of (R_n - R_{n-1}) * P_n.

Folds come from a single seeded shuffle cut into k chunks; per-fold summaries
report "mean +/- sample std" with half-up rounding to three decimals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from . import impute as impute_mod
from .attribution import AttributionMatrix, global_shap_importance, tree_shap
from .boost import BoostParams, fit_boosted, predict_proba_boosted
from .cluster import ClusterReport, cluster_importance
from .data import Dataset, design_matrix, split_folds, take_rows
from .errors import MetricError, ValidationError
from .forest import ForestModel, ForestParams, ImportanceProfile, fit_forest, forest_importance, predict_proba_forest
from .rng import stable_seed

MODEL_RF = "rf"
MODEL_BOOSTED = "boosted"


def _check_scores_labels(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1 or labels.shape != scores.shape:
        raise ValidationError("scores and labels must be 1-D arrays of equal length")
    if scores.size == 0:
        raise MetricError("empty score vector")
    if not np.isfinite(scores).all():
        raise ValidationError("scores must be finite")
    if not np.isin(labels, (0, 1)).all():
        raise ValidationError("labels must be 0 or 1")
    return scores, labels.astype(np.int64)


def _midranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks, ties replaced by the mean rank of the tied block."""
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    ranks = np.empty(scores.size, dtype=np.float64)
    # a block tied at sorted positions i..j takes (i + 1 + j + 1) / 2
    ranks[order] = (np.searchsorted(s, s, "left") + np.searchsorted(s, s, "right") + 1) / 2.0
    return ranks


def _threshold_blocks(scores: np.ndarray, labels: np.ndarray):
    """Cumulative (tp, fp) after each distinct descending score block."""
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order]
    boundaries = np.flatnonzero(np.diff(s) != 0)
    ends = np.append(boundaries, s.size - 1)
    ctp = np.cumsum(y)[ends]
    cfp = np.cumsum(1 - y)[ends]
    return ctp, cfp


def auroc(scores, labels) -> tuple[float, list[tuple[float, float]]]:
    """Tie-corrected AUROC and the ROC polyline from (0,0) to (1,1)."""
    scores, labels = _check_scores_labels(scores, labels)
    n_pos = int(labels.sum())
    n_neg = int(labels.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise MetricError("AUROC undefined: labels contain a single class")
    ranks = _midranks(scores)
    rank_sum = float(ranks[labels == 1].sum())
    auc = (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    ctp, cfp = _threshold_blocks(scores, labels)
    points = [(0.0, 0.0)] + [(fp / n_neg, tp / n_pos) for tp, fp in zip(ctp, cfp)]
    return float(auc), points


def auprc(scores, labels) -> tuple[float, list[tuple[float, float]]]:
    """Step-wise average precision and the (recall, precision) polyline."""
    scores, labels = _check_scores_labels(scores, labels)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise MetricError("AUPRC undefined: no positive labels")
    ctp, cfp = _threshold_blocks(scores, labels)
    ap = 0.0
    prev_recall = 0.0
    points = [(0.0, 1.0)]
    for tp, fp in zip(ctp, cfp):
        recall = tp / n_pos
        precision = tp / (tp + fp)
        ap += (recall - prev_recall) * precision
        prev_recall = recall
        points.append((float(recall), float(precision)))
    return float(ap), points


def _round3(value: float) -> str:
    return str(Decimal(repr(float(value))).quantize(Decimal("0.001"), rounding=ROUND_HALF_UP))


def aggregate(values) -> tuple[float, float, str]:
    """Mean, sample standard deviation (k-1 divisor), and "m ± s" string."""
    vals = [float(v) for v in values]
    k = len(vals)
    if k < 2:
        raise ValidationError("aggregate needs at least two values")
    mean = math.fsum(vals) / k
    var = math.fsum((v - mean) ** 2 for v in vals) / (k - 1)
    std = math.sqrt(var)
    return mean, std, f"{_round3(mean)} ± {_round3(std)}"


@dataclass
class ModelSpec:
    kind: str  # MODEL_RF or MODEL_BOOSTED
    params: ForestParams | BoostParams | None = None

    def __post_init__(self):
        if self.kind not in (MODEL_RF, MODEL_BOOSTED):
            raise ValidationError(f"unknown model kind {self.kind!r}")
        if self.params is None:
            self.params = ForestParams() if self.kind == MODEL_RF else BoostParams()


@dataclass
class FoldMetrics:
    fold: int
    n_test: int
    n_pos: int
    auroc: float | None = None
    auprc: float | None = None
    roc_points: list = field(default_factory=list)
    pr_points: list = field(default_factory=list)
    error: str | None = None


@dataclass
class CvSummary:
    model: str
    k: int
    seed: int
    baseline: float  # full-dataset prevalence; chance level for PR curves
    folds: list[FoldMetrics]
    n_valid_folds: int
    auroc_mean: float | None
    auroc_std: float | None
    auroc_formatted: str | None
    auprc_mean: float | None
    auprc_std: float | None
    auprc_formatted: str | None


@dataclass
class CvResult:
    summary: CvSummary
    importances: list[ImportanceProfile | None]
    attributions: list[AttributionMatrix | None]
    cluster_reports: list[ClusterReport | None]


def _fit_one_fold(
    spec: ModelSpec,
    train_ds: Dataset,
    test_ds: Dataset,
    x_test: np.ndarray,
    fold: int,
    seed: int,
    clusters_k: int,
) -> tuple[FoldMetrics, ImportanceProfile | None, AttributionMatrix | None, ClusterReport | None]:
    """One model on one fold: metrics, importance, attribution, cluster report."""
    metrics = FoldMetrics(fold=fold, n_test=test_ds.n_rows, n_pos=int(test_ds.labels.sum()))
    model_seed = stable_seed(seed, spec.kind, fold)
    try:
        if spec.kind == MODEL_RF:
            model = fit_forest(train_ds, spec.params, seed=model_seed)
            scores = predict_proba_forest(model, x_test)
        else:
            model = fit_boosted(train_ds, spec.params, seed=model_seed)
            scores = predict_proba_boosted(model, x_test)
    except ValidationError as exc:
        metrics.error = f"model fit failed: {exc}"
        return metrics, None, None, None

    try:
        metrics.auroc, metrics.roc_points = auroc(scores, test_ds.labels)
        metrics.auprc, metrics.pr_points = auprc(scores, test_ds.labels)
    except MetricError as exc:
        metrics.error = str(exc)

    if spec.kind == MODEL_RF:
        profile = forest_importance(model)
        attr = None
    else:
        attr = tree_shap(model, x_test)
        profile = global_shap_importance(attr)
    try:
        _, report = cluster_importance(
            profile, k=clusters_k, seed=stable_seed(seed, "cluster", spec.kind, fold)
        )
    except ValidationError:
        report = None
    return metrics, profile, attr, report


def _summarize(
    kind: str, k: int, seed: int, baseline: float, fold_metrics: list[FoldMetrics]
) -> CvSummary:
    valid = [m for m in fold_metrics if m.error is None]
    if len(valid) >= 2:
        auroc_mean, auroc_std, auroc_fmt = aggregate([m.auroc for m in valid])
        auprc_mean, auprc_std, auprc_fmt = aggregate([m.auprc for m in valid])
    else:
        auroc_mean = auroc_std = auprc_mean = auprc_std = None
        auroc_fmt = auprc_fmt = None
    return CvSummary(
        model=kind,
        k=k,
        seed=seed,
        baseline=baseline,
        folds=fold_metrics,
        n_valid_folds=len(valid),
        auroc_mean=auroc_mean,
        auroc_std=auroc_std,
        auroc_formatted=auroc_fmt,
        auprc_mean=auprc_mean,
        auprc_std=auprc_std,
        auprc_formatted=auprc_fmt,
    )


def run_cv(
    ds: Dataset,
    model_specs: list[ModelSpec],
    k: int = 5,
    seed: int = 0,
    impute_cfg=None,
    clusters_k: int = 20,
) -> dict[str, CvResult]:
    """k-fold CV: per fold, fit on the other folds, score the held-out fold.

    Every model in `model_specs` (one per kind) sees the same folds, and each
    fold's data is prepared once and shared by all of them.  When
    `impute_cfg` is given the imputer is fit on the training folds only and
    applied to both sides, or, with `impute_cfg.fit_on_all`, fit and applied
    once on the whole table before the folds are cut; otherwise the dataset
    must be complete.  The model-appropriate importance is computed per fold
    (impurity decrease for rf, mean |Shapley| over the test fold for
    boosted) and clustered.  Returns one CvResult per model kind.
    """
    if ds.labels is None:
        raise ValidationError("run_cv requires labels")
    kinds = [spec.kind for spec in model_specs]
    if not kinds or len(set(kinds)) != len(kinds):
        raise ValidationError(f"run_cv needs one spec per distinct model kind, got {kinds}")
    if impute_cfg is not None and impute_cfg.fit_on_all:
        ds = impute_mod.impute(ds, impute_mod.fit_imputation(ds, impute_cfg))
        impute_cfg = None
    folds = split_folds(ds.n_rows, k, seed)
    baseline = float(ds.labels.sum() / ds.n_rows)

    # per kind: fold metrics, importances, attributions, cluster reports
    collected = {kind: ([], [], [], []) for kind in kinds}
    for fold in range(k):
        test_idx = folds.fold_indices(fold)
        train_idx = np.flatnonzero(folds.fold_of_row != fold)
        train_ds = take_rows(ds, train_idx)
        test_ds = take_rows(ds, test_idx)
        if impute_cfg is not None:
            try:
                imodel = impute_mod.fit_imputation(train_ds, impute_cfg)
            except ValidationError as exc:
                raise ValidationError(f"fold {fold + 1} of {k}: {exc}") from None
            train_ds = impute_mod.impute(train_ds, imodel)
            test_ds = impute_mod.impute(test_ds, imodel)
        x_test, _, _ = design_matrix(test_ds)
        for spec in model_specs:
            outcome = _fit_one_fold(spec, train_ds, test_ds, x_test, fold, seed, clusters_k)
            for bucket, value in zip(collected[spec.kind], outcome):
                bucket.append(value)

    return {
        kind: CvResult(
            summary=_summarize(kind, k, seed, baseline, fold_metrics),
            importances=importances,
            attributions=attributions,
            cluster_reports=reports,
        )
        for kind, (fold_metrics, importances, attributions, reports) in collected.items()
    }
