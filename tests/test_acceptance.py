"""Acceptance gate: one check per shipped guarantee, one verdict line each.

Run `pytest tests/test_acceptance.py -s` to see the verdict lines as they
print.  Criterion 8 needs the restricted clinical extract; point
ICUI_DATASET2 at the CSV to enable it, otherwise it reports SKIP.
"""

import json
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import TreeBuilder, build_dataset
from icui.attribution import tree_shap
from icui.boost import BoostParams, fit_boosted
from icui.cli import cli_main
from icui.cluster import kmeans_1d
from icui.data import (
    NUMERIC,
    Dataset,
    apply_preprocess,
    drop_incomplete_rows,
    load_csv,
    preset_plan,
    summarize,
)
from icui.evaluate import ModelSpec, auprc, auroc, run_cv
from icui.forest import (
    ForestModel,
    ForestParams,
    _mean_importance,
    fit_forest,
    forest_importance,
    gini,
    impurity_decrease,
)
from icui.impute import ImputeParams, fit_column, fit_imputation, impute, select_imputer
from icui.synth import SynthSpec, generate
from shap_oracle import model_output, shapley_bruteforce

# frozen pipeline settings for the big synthetic run (criteria 6 and 8)
RF_PARAMS = dict(n_trees=50, max_depth=16, min_samples_leaf=20)
BOOST_PARAMS = dict(n_rounds=40, max_depth=4, eta=0.3)


@contextmanager
def _verdict(num: int, name: str):
    try:
        yield
    except BaseException as exc:
        status = "SKIP" if isinstance(exc, pytest.skip.Exception) else "FAIL"
        print(f"criterion {num} ({name}): {status}", flush=True)
        raise
    print(f"criterion {num} ({name}): PASS", flush=True)


def _numeric_dataset(rng, n, n_feat):
    x = np.column_stack([rng.integers(-3, 4, n) for _ in range(n_feat)]).astype(np.float64)
    y = (rng.random(n) < 0.45).astype(np.int64)
    y[0], y[1] = 0, 1  # both classes guaranteed
    return Dataset(names=[f"f{j}" for j in range(n_feat)], kinds=[NUMERIC] * n_feat, x=x, labels=y)


def test_criterion_1_shapley_oracle_equivalence():
    with _verdict(1, "Shapley oracle equivalence"):
        t0 = time.monotonic()
        for i in range(20):
            rng = np.random.default_rng(1000 + i)
            ds = _numeric_dataset(rng, 60, int(rng.integers(3, 9)))
            if i % 2 == 0:
                model = fit_forest(
                    ds,
                    ForestParams(n_trees=int(rng.integers(2, 6)), max_depth=4, min_samples_leaf=2),
                    seed=i,
                )
            else:
                model = fit_boosted(
                    ds,
                    BoostParams(n_rounds=int(rng.integers(2, 6)), max_depth=int(rng.integers(2, 5)), eta=0.4),
                    seed=i,
                )
            x = rng.integers(-3, 4, (50, len(ds.names))).astype(np.float64)
            attr = tree_shap(model, x)
            out = model_output(model, x)
            gap = np.abs(attr.phi.sum(axis=1) + attr.base_value - out)
            assert gap.max() <= 1e-9, "local accuracy violated"
            for r in range(x.shape[0]):
                phi, base = shapley_bruteforce(model, x[r])
                assert np.abs(phi - attr.phi[r]).max() <= 1e-9
                assert abs(base - attr.base_value) <= 1e-9
        assert time.monotonic() - t0 < 60.0


def test_criterion_2_metric_oracles():
    with _verdict(2, "ranking-metric oracles"):
        t0 = time.monotonic()
        rng = np.random.default_rng(77)
        for _ in range(500):
            n = int(rng.integers(2, 201))
            y = rng.integers(0, 2, n)
            y[0], y[1 % n] = 0, 1
            scores = (
                rng.integers(0, 5, n).astype(np.float64)
                if rng.random() < 0.5
                else rng.random(n)
            )
            a, _ = auroc(scores, y)
            pos = scores[y == 1][:, None]
            neg = scores[y == 0][None, :]
            conc = float((pos > neg).sum()) + 0.5 * float((pos == neg).sum())
            assert abs(a - conc / (pos.size * neg.size)) <= 1e-12
        y = np.array([1, 0, 0, 1, 0, 0, 0, 1, 0, 0])
        ap, _ = auprc(np.ones(10), y)
        assert ap == 0.3  # constant scorer lands exactly on prevalence
        a, _ = auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
        assert a == 0.75
        assert time.monotonic() - t0 < 10.0


def _hand_forest() -> ForestModel:
    b = TreeBuilder(track_class_counts=True)
    root = b.add_node(8.0, 0.375, (5.0, 3.0))
    b.set_split(root, 0, 4.5, False, 0.28125)
    lo = b.add_node(4.0, 0.0, (4.0, 0.0))
    hi = b.add_node(4.0, 0.75, (1.0, 3.0))
    b.link(root, lo, hi)
    b.set_split(hi, 1, 4.0, False, 0.375)
    b.link(hi, b.add_node(1.0, 0.0, (1.0, 0.0)), b.add_node(3.0, 1.0, (0.0, 3.0)))
    depth2 = b.build()
    b = TreeBuilder(track_class_counts=True)
    root = b.add_node(8.0, 0.5, (4.0, 4.0))
    b.set_split(root, 0, 2.5, False, 0.125)
    b.link(root, b.add_node(4.0, 0.25, (3.0, 1.0)), b.add_node(4.0, 0.75, (1.0, 3.0)))
    stump = b.build()
    return ForestModel(
        trees=[depth2, stump],
        params=ForestParams(n_trees=2),
        feature_names=["f0", "f1"],
        feature_kinds=[NUMERIC, NUMERIC],
        bootstrap_n=8,
        seed=0,
    )


def test_criterion_3_impurity_fixtures():
    with _verdict(3, "impurity and importance fixtures"):
        assert gini([1, 3]) == 0.375
        assert impurity_decrease([3, 1], [2, 0], [1, 1]) == 0.125
        raw = _mean_importance(_hand_forest())
        assert raw.tolist() == [0.203125, 0.09375]
        norm = forest_importance(_hand_forest())
        assert abs(norm.scores.sum() - 1.0) <= 1e-12
        assert norm.scores.tolist() == [13 / 19, 6 / 19]


def test_criterion_4_kmeans_objective_and_fixtures():
    with _verdict(4, "k-means objective and fixtures"):
        for i in range(100):
            rng = np.random.default_rng(3000 + i)
            n = int(rng.integers(2, 60))
            k = int(rng.integers(1, min(9, n) + 1))
            model = kmeans_1d(rng.random(n), k, seed=i)
            h = model.objective_history
            slack = 1e-12 * max(1.0, h[0])
            assert all(h[j + 1] <= h[j] + slack for j in range(len(h) - 1))
        four = np.array([0.50, 0.49, 0.01, 0.00])
        model = kmeans_1d(four, 2, seed=0)
        assert model.assignment[0] == model.assignment[1]
        assert model.assignment[2] == model.assignment[3]
        assert model.assignment[0] != model.assignment[2]
        assert model.objective == pytest.approx(1e-4, rel=1e-9)
        vals = np.random.default_rng(7).random(66)
        m1 = kmeans_1d(vals, 20, seed=0)
        m2 = kmeans_1d(vals, 20, seed=0)
        assert m1.k == 20
        assert np.array_equal(m1.assignment, m2.assignment)
        assert np.array_equal(m1.centroids, m2.centroids)
        assert np.bincount(m1.assignment, minlength=20).min() >= 1


def test_criterion_5_imputation_guarantees():
    with _verdict(5, "imputation guarantees"):
        a0 = ImputeParams(algorithm="a0")
        ds = build_dataset({"x": [3.0, 1.0, 2.0, 4.0]})
        assert fit_imputation(ds, a0).columns["x"].fallback == 2.0  # lower middle
        ds = build_dataset({}, categorical={"c": ([0, 1, 0, 1, 2], ["u", "v", "w"])})
        assert fit_imputation(ds, a0).columns["c"].fallback == 0.0  # tie to lowest code

        rng = np.random.default_rng(5)
        n = 80
        base = rng.standard_normal(n)
        grouped = build_dataset(
            {
                "hr_min": base - 0.2,
                "hr_max": base + 0.2,
                "spo2": rng.standard_normal(n),
                "age": rng.uniform(20, 90, n),
            },
            missing={"hr_min": rng.random(n) < 0.2, "hr_max": rng.random(n) < 0.2},
        )
        small_boost = BoostParams(n_rounds=15, max_depth=2, eta=0.3)
        from icui.impute import derive_groups
        groups = derive_groups(grouped.names)
        for target in grouped.names:
            entry = fit_column(grouped, target, "a2", boost=small_boost, min_rows=10)
            if entry.algorithm != "a2":
                continue
            same = {m for m in grouped.names if groups[m] == groups[target]}
            assert set(entry.predictor_grouped.feature_names).isdisjoint(same)

        dup_rng = np.random.default_rng(11)
        col = dup_rng.standard_normal(90)
        mask = np.zeros(90, dtype=bool)
        mask[dup_rng.choice(90, 15, replace=False)] = True
        dup_ds = build_dataset({"base": col, "dup": col.copy()}, missing={"dup": mask})
        for seed in range(10):
            chosen, _ = select_imputer(
                dup_ds, "dup",
                params=ImputeParams(algorithm="select", seed=seed, min_rows=20, boost=small_boost),
            )
            assert chosen != "a0", f"copy column fell back to a0 at seed {seed}"

        for alg in ("a0", "a1", "a2", "a3"):
            model = fit_imputation(grouped, ImputeParams(algorithm=alg, min_rows=10, boost=small_boost))
            out = impute(grouped, model)
            for j in range(len(grouped.names)):
                keep = ~np.isnan(grouped.x[:, j])
                assert out.x[keep, j].tobytes() == grouped.x[keep, j].tobytes()


def test_criterion_6_synthetic_qualitative_reproduction():
    with _verdict(6, "synthetic qualitative reproduction"):
        t0 = time.monotonic()
        ds, truth = generate(SynthSpec(n_rows=20000, seed=7))
        assert 0.2315 <= truth["realized_prevalence"] <= 0.2415
        tops = {}
        for kind, params in (
            ("rf", ForestParams(**RF_PARAMS)),
            ("boosted", BoostParams(**BOOST_PARAMS)),
        ):
            result = run_cv(ds, [ModelSpec(kind, params)], k=5, seed=7, clusters_k=20)[kind]
            assert len(result.valid_folds()) == 5
            assert all(f.auroc > 0.85 for f in result.folds), f"{kind} fold AUROC below 0.85"
            assert result.stats("auroc")[1] < 0.03, f"{kind} fold spread too wide"
            mean_imp = np.mean([f.importance.scores for f in result.folds], axis=0)
            names = result.folds[0].importance.names
            tops[kind] = {names[i] for i in np.argsort(-mean_imp)[:10]}
        assert len(tops["rf"] & tops["boosted"]) >= 6
        assert len(tops["rf"] & set(truth["signal_features"])) >= 8
        assert time.monotonic() - t0 < 300.0


def _tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in files:
            p = os.path.join(dirpath, f)
            out[os.path.relpath(p, root)] = open(p, "rb").read()
    return out


def test_criterion_7_run_all_determinism(tmp_path):
    with _verdict(7, "run-all determinism"):
        data_dir = tmp_path / "data"
        rc = cli_main([
            "synth", "--rows", "120", "--features", "8", "--signal", "3",
            "--missing-rate", "0.1", "--seed", "1", "--out", str(data_dir),
        ])
        assert rc == 0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "model": "both", "k": 5, "clusters_k": 3, "seed": 0, "strategy": "impute",
            "rf": {"n_trees": 8, "max_depth": 4, "min_samples_leaf": 2},
            "boosted": {"n_rounds": 10, "max_depth": 2},
            "impute": {"algorithm": "a1", "min_rows": 10, "boost": {"n_rounds": 8, "max_depth": 2}},
        }))
        trees = {}
        for name in ("first", "second"):
            out = tmp_path / name
            rc = cli_main([
                "run-all", "--config", str(cfg_path),
                "--input", str(data_dir / "synth.csv"), "--out", str(out),
            ])
            assert rc == 0
            trees[name] = _tree_bytes(out)
        assert set(trees["first"]) == set(trees["second"])
        for rel in trees["first"]:
            if rel == "run_meta.json":
                continue
            assert trees["first"][rel] == trees["second"][rel], f"{rel} differs across runs"


def test_criterion_8_restricted_extract_reproduction():
    with _verdict(8, "restricted-data reproduction"):
        path = os.environ.get("ICUI_DATASET2", "")
        if not path:
            pytest.skip("restricted extract not supplied; set ICUI_DATASET2 to its CSV path")
        if not os.path.exists(path):
            pytest.skip(f"ICUI_DATASET2 points at a missing file: {path}")
        plan = preset_plan("dataset2")
        ds = load_csv(path, label_column=plan.label)
        work = drop_incomplete_rows(apply_preprocess(ds, plan))
        assert work.n_rows == 5661
        assert abs(summarize(work).prevalence - 0.2365) < 5e-5
        for kind, params, target in (
            ("rf", ForestParams(**RF_PARAMS), 0.839),
            ("boosted", BoostParams(**BOOST_PARAMS), 0.834),
        ):
            result = run_cv(work, [ModelSpec(kind, params)], k=5, seed=0, clusters_k=20)[kind]
            assert result.stats("auroc")[0] is not None
            assert abs(result.stats("auroc")[0] - target) <= 0.03
