import csv
import json
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from icui.cli import cli_main, load_run_config
from icui.data import LEAKAGE_COLUMNS, load_csv, split_folds
from icui.errors import ValidationError


def _write_cfg(tmp_path, **over):
    base = {
        "model": "both",
        "k": 5,
        "clusters_k": 3,
        "seed": 0,
        "strategy": "impute",
        "rf": {"n_trees": 8, "max_depth": 4, "min_samples_leaf": 2},
        "boosted": {"n_rounds": 10, "max_depth": 2},
        "impute": {"algorithm": "a1", "min_rows": 10, "boost": {"n_rounds": 8, "max_depth": 2}},
    }
    base.update(over)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base))
    return str(path)


@pytest.fixture(scope="module")
def synth_csv(tmp_path_factory):
    root = tmp_path_factory.mktemp("synthdata")
    rc = cli_main([
        "synth", "--rows", "120", "--features", "8", "--signal", "3",
        "--missing-rate", "0.1", "--seed", "1", "--out", str(root),
    ])
    assert rc == 0
    return str(root / "synth.csv")


@pytest.fixture(scope="module")
def complete_csv(tmp_path_factory):
    root = tmp_path_factory.mktemp("completedata")
    rc = cli_main([
        "synth", "--rows", "120", "--features", "8", "--signal", "3",
        "--seed", "2", "--out", str(root),
    ])
    assert rc == 0
    return str(root / "synth.csv")


def _tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in files:
            p = os.path.join(dirpath, f)
            out[os.path.relpath(p, root)] = open(p, "rb").read()
    return out


EXPECTED_MODEL_FILES = {
    "rf": {
        *{f"roc_fold{i}.csv" for i in range(1, 6)},
        *{f"pr_fold{i}.csv" for i in range(1, 6)},
        "importance_rf.csv", "heatmap_rf.csv",
        "roc_rf.svg", "pr_rf.svg", "heatmap_rf.svg",
    },
    "boosted": {
        *{f"roc_fold{i}.csv" for i in range(1, 6)},
        *{f"pr_fold{i}.csv" for i in range(1, 6)},
        *{f"shap_fold{i}.csv" for i in range(1, 6)},
        "importance_boosted.csv", "heatmap_boosted.csv",
        "roc_boosted.svg", "pr_boosted.svg", "heatmap_boosted.svg",
    },
}


def test_synth_twice_is_byte_identical(tmp_path):
    for sub in ("a", "b"):
        rc = cli_main(["synth", "--rows", "200", "--seed", "1", "--out", str(tmp_path / sub)])
        assert rc == 0
    a = (tmp_path / "a" / "synth.csv").read_bytes()
    b = (tmp_path / "b" / "synth.csv").read_bytes()
    assert a == b


def test_run_all_layout(tmp_path, synth_csv):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    rc = cli_main(["run-all", "--config", cfg, "--input", synth_csv, "--out", str(out)])
    assert rc == 0
    assert (out / "summary.json").exists()
    assert (out / "run_meta.json").exists()
    for model, files in EXPECTED_MODEL_FILES.items():
        have = set(os.listdir(out / model))
        assert files <= have, f"{model} missing {files - have}"
        for name in have:
            if name.endswith(".svg"):
                ET.fromstring((out / model / name).read_text(encoding="utf-8"))  # well-formed XML
    payload = json.loads((out / "summary.json").read_text())
    assert set(payload["models"]) == {"rf", "boosted"}
    for entry in payload["models"].values():
        assert entry["n_valid_folds"] == 5
        assert entry["auroc"]["formatted"] is not None
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["command"] == "run-all"
    assert "timestamp" in meta and meta["config"]["seed"] == 0
    assert isinstance(meta["numpy_cpu_dispatch"], list) and all(isinstance(t, str) for t in meta["numpy_cpu_dispatch"])


def test_run_meta_records_reduced_cluster_k(tmp_path, complete_csv):
    # 8 features cannot fill 50 clusters: each fold's k falls to its count of
    # distinct importance scores, and run_meta.json records the k actually used
    cfg = _write_cfg(tmp_path, strategy="drop", clusters_k=50)
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="reducing k"):
        assert cli_main(["run-all", "--config", cfg, "--input", complete_csv, "--out", str(out)]) == 0
    meta = json.loads((out / "run_meta.json").read_text())
    assert set(meta["cluster_k"]) == {"rf", "boosted"}
    for model, ks in meta["cluster_k"].items():
        with open(out / model / f"importance_{model}.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(ks) == 5
        for fold, k in enumerate(ks):
            assert k == len({float(row[1 + fold]) for row in rows}) < 50


def test_drop_with_fewer_complete_rows_than_folds_is_a_validation_error(tmp_path, capsys):
    # 40 rows, all but 3 missing a feature cell: drop keeps 3 rows for 5 folds
    rows = ["a,b,icu_death"] + [f"{i},{'' if i >= 3 else i % 2},{i % 2}" for i in range(40)]
    data = tmp_path / "sparse.csv"
    data.write_text("\n".join(rows) + "\n")
    cfg = _write_cfg(tmp_path, strategy="drop")
    out = tmp_path / "out"
    assert cli_main(["run-all", "--config", cfg, "--input", str(data), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: strategy 'drop' keeps 3 of 40 rows, fewer than k=5 folds" in err
    assert not out.exists()


def _rewrite_column(src, dst, name, cell):
    """Copy the CSV `src` to `dst` with column `name`'s cell in row i (0-based) replaced by `cell(i)`."""
    with open(src, newline="", encoding="utf-8") as fh:
        head, *rows = list(csv.reader(fh))
    j = head.index(name)
    for i, row in enumerate(rows):
        row[j] = cell(i)
    with open(dst, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([head, *rows])
    return str(dst)


def test_unscorable_label_exits_1_before_writing(tmp_path, capsys, complete_csv):
    # every test fold holds one class only, so no fold has an AUROC to plot
    data = _rewrite_column(complete_csv, tmp_path / "zeros.csv", "icu_death", lambda i: "0")
    cfg = _write_cfg(tmp_path, strategy="drop")
    out = tmp_path / "out"
    out.mkdir()
    assert cli_main(["run-all", "--config", cfg, "--input", data, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: label 'icu_death': no rf fold can be scored; ")
    assert "fold 1: AUROC undefined: labels contain a single class" in err
    assert list(out.iterdir()) == []


def test_imputer_without_observed_training_cells_names_the_fold(tmp_path, capsys, complete_csv):
    # s01 is observed in one row only: the fold that tests that row trains on none
    kept = 17
    data = _rewrite_column(
        complete_csv, tmp_path / "sparse.csv", "s01", lambda i: "0.5" if i == kept else ""
    )
    cfg = _write_cfg(tmp_path, strategy="impute")
    out = tmp_path / "out"
    assert cli_main(["run-all", "--config", cfg, "--input", data, "--out", str(out)]) == 1
    fold = int(split_folds(120, 5, 0).fold_of_row[kept]) + 1
    assert capsys.readouterr().err == (
        f"error: fold {fold} of 5: column 's01' has no observed values; cannot impute "
        "(imputer fitted on 96 rows)\n"
    )
    assert not out.exists()


def test_every_output_table_reparses(tmp_path, synth_csv):
    cfg = _write_cfg(tmp_path, model="rf")
    out = tmp_path / "out"
    assert cli_main(["run-all", "--config", cfg, "--input", synth_csv, "--out", str(out)]) == 0
    tables = [p for p in (out / "rf").iterdir() if p.suffix == ".csv"]
    assert tables
    for path in tables:
        ds = load_csv(str(path))
        assert ds.n_rows >= 0


def test_run_all_deterministic_across_runs(tmp_path, synth_csv):
    # two runs of one config give the same bytes (trees are fitted in one thread)
    cfg = _write_cfg(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli_main(["run-all", "--config", cfg, "--input", synth_csv, "--out", str(out1)]) == 0
    assert cli_main(["run-all", "--config", cfg, "--input", synth_csv, "--out", str(out2)]) == 0
    t1, t2 = _tree_bytes(out1), _tree_bytes(out2)
    assert set(t1) == set(t2)
    for rel in t1:
        if rel == "run_meta.json":
            continue
        assert t1[rel] == t2[rel], f"{rel} differs between runs"


def test_drop_equals_impute_on_complete_data(tmp_path, complete_csv):
    outs = {}
    for strategy in ("impute", "drop"):
        cfg = _write_cfg(tmp_path, strategy=strategy)
        out = tmp_path / f"out_{strategy}"
        assert cli_main(["run-all", "--config", cfg, "--input", complete_csv, "--out", str(out)]) == 0
        outs[strategy] = _tree_bytes(out)
    assert set(outs["impute"]) == set(outs["drop"])
    for rel in outs["impute"]:
        if rel == "run_meta.json":
            continue
        assert outs["impute"][rel] == outs["drop"][rel], f"{rel} differs between strategies"


def test_flag_overrides_config(tmp_path, complete_csv):
    cfg = _write_cfg(tmp_path, model="rf", seed=3)
    out = tmp_path / "out"
    rc = cli_main([
        "run-all", "--config", cfg, "--input", complete_csv, "--out", str(out), "--seed", "5",
    ])
    assert rc == 0
    assert json.loads((out / "summary.json").read_text())["seed"] == 5
    assert json.loads((out / "run_meta.json").read_text())["command"] == "run-all"


def test_impute_applies_plan_file(tmp_path, complete_csv):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({"exclude": ["n01"], "label": "icu_death"}))
    cfg = _write_cfg(tmp_path, impute={"algorithm": "a0"})
    out = tmp_path / "imp"
    rc = cli_main(["impute", "--config", cfg, "--input", complete_csv, "--plan", str(plan_path), "--out", str(out)])
    assert rc == 0
    ds = load_csv(str(out / "imputed.csv"))
    assert "n01" not in ds.names
    assert ds.label_name == "icu_death" and ds.labels is not None


@pytest.mark.parametrize(
    "plan, key", [({"rename": ["a"]}, "rename"), ({"exclude": "s01"}, "exclude")]
)
def test_malformed_plan_exits_1_naming_the_key(tmp_path, capsys, complete_csv, plan, key):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    rc = cli_main(["impute", "--input", complete_csv, "--plan", str(plan_path), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert f"plan: {key} must be" in capsys.readouterr().err


def test_impute_subcommand_fills_and_reports(tmp_path, synth_csv):
    cfg = _write_cfg(tmp_path, impute={"algorithm": "a0"})
    out = tmp_path / "imp"
    rc = cli_main(["impute", "--config", cfg, "--input", synth_csv, "--out", str(out)])
    assert rc == 0
    ds = load_csv(str(out / "imputed.csv"))
    assert not np.isnan(ds.x).any()
    report = json.loads((out / "impute_report.json").read_text())
    assert set(report["columns"]) == set(ds.names)
    assert all(e["algorithm"] == "a0" for e in report["columns"].values())


def _leaky_csv(path, labelled):
    """30 rows: the four leakage columns, a grouped pair with gaps, and the label if `labelled`."""
    rng = np.random.default_rng(3)
    base = rng.standard_normal(30)
    cols = {name: np.arange(30.0) for name in LEAKAGE_COLUMNS}
    cols.update(a_min=base, a_max=base + 1.0, b=rng.standard_normal(30))
    if labelled:
        cols["icu_death"] = (base > 0).astype(float)
    rows = [[repr(float(v)) for v in vals] for vals in zip(*cols.values())]
    for i in range(0, 30, 4):
        rows[i][len(LEAKAGE_COLUMNS)] = ""  # a gap in a_min
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([list(cols), *rows])
    return str(path)


@pytest.mark.parametrize("labelled", [True, False])
def test_impute_applies_the_preset_before_fitting(tmp_path, labelled):
    src = _leaky_csv(tmp_path / "in.csv", labelled)
    cfg = _write_cfg(tmp_path, impute={"algorithm": "a1", "min_rows": 10, "boost": {"n_rounds": 2}})
    out = tmp_path / "imp"
    rc = cli_main(["impute", "--config", cfg, "--preset", "dataset2", "--input", src, "--out", str(out)])
    assert rc == 0
    with open(out / "imputed.csv", newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh))
    assert header == ["a_min", "a_max", "b"] + (["icu_death"] if labelled else [])
    report = json.loads((out / "impute_report.json").read_text())
    assert sorted(report["columns"]) == ["a_max", "a_min", "b"]
    assert report["columns"]["a_min"]["algorithm"] == "a1"


def test_impute_groups_config_key_is_rejected(tmp_path, capsys, synth_csv):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"impute": {"groups": {}}}))
    rc = cli_main(["impute", "--config", str(path), "--input", synth_csv, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "config.impute: unknown keys ['groups']" in capsys.readouterr().err


def test_missing_input_exits_1_naming_path(tmp_path, capsys):
    rc = cli_main(["run-all", "--input", "/nope/missing.csv", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "/nope/missing.csv" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"modle": "rf"}))
    rc = cli_main(["run-all", "--config", str(path), "--input", "x.csv", "--out", "y"])
    assert rc == 1
    assert "modle" in capsys.readouterr().err


def test_unknown_nested_key_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"rf": {"trees": 10}}))
    with pytest.raises(ValidationError, match="config.rf"):
        load_run_config(str(path), None)


def test_unknown_flag_usage_exit_1(capsys):
    rc = cli_main(["run-all", "--bogus", "1"])
    assert rc == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_bad_strategy_value_exit_1(capsys):
    rc = cli_main(["run-all", "--strategy", "zap", "--input", "x", "--out", "y"])
    assert rc == 1


def test_removed_subcommands_are_usage_errors(tmp_path, capsys):
    for command in ("prep", "report"):
        assert cli_main([command, "--out", str(tmp_path)]) == 1
        assert "invalid choice" in capsys.readouterr().err


def test_no_subcommand_exit_1(capsys):
    assert cli_main([]) == 1


def test_help_exits_0(capsys):
    assert cli_main(["--help"]) == 0
    assert "synth" in capsys.readouterr().out


def test_missing_out_rejected(tmp_path, capsys, complete_csv):
    rc = cli_main(["run-all", "--input", complete_csv])
    assert rc == 1
    assert "out" in capsys.readouterr().err


def test_preset_and_plan_conflict(tmp_path, capsys, complete_csv):
    rc = cli_main([
        "run-all", "--input", complete_csv, "--out", str(tmp_path / "o"),
        "--preset", "dataset1", "--plan", "p.json",
    ])
    assert rc == 1
    assert "not both" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, field, value",
    [
        ("rf", "min_samples_leaf", -3),
        ("rf", "mtry", 0),
        ("boosted", "reg_lambda", -0.5),
        ("boosted", "eta", -1),
        ("boosted", "min_child_weight", -1),
        ("boosted", "gamma", -1),
    ],
)
def test_out_of_range_tree_params_rejected_from_config(tmp_path, section, field, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({section: {field: value}}))
    with pytest.raises(ValidationError, match=f"config.{section}: {field}"):
        load_run_config(str(path), None)


def test_out_of_range_imputer_boost_param_rejected_from_config(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"impute": {"boost": {"max_depth": -2}}}))
    rc = cli_main(["run-all", "--config", str(path), "--input", "x.csv", "--out", "y"])
    assert rc == 1
    assert "config.impute.boost: max_depth must be >= 0" in capsys.readouterr().err


# ------------------------------------------------- partial and mistyped config


def _load(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    return load_run_config(str(path), None)


def test_partial_sections_keep_the_documented_defaults(tmp_path):
    default = load_run_config(None, None)
    cfg = _load(tmp_path, {"impute": {"min_rows": 30}})
    assert cfg.impute.algorithm == "select"
    assert cfg.impute.min_rows == 30
    assert cfg.impute.boost == default.impute.boost
    cfg = _load(tmp_path, {"impute": {"boost": {"eta": 0.3}}})
    assert (cfg.impute.boost.n_rounds, cfg.impute.boost.max_depth, cfg.impute.boost.eta) == (50, 3, 0.3)
    assert cfg.impute.algorithm == "select"
    cfg = _load(tmp_path, {"rf": {"max_depth": 6}, "boosted": {"eta": 0.2}})
    assert (cfg.rf.n_trees, cfg.rf.max_depth, cfg.rf.min_samples_leaf) == (300, 6, 5)
    assert (cfg.boosted.n_rounds, cfg.boosted.max_depth, cfg.boosted.eta) == (200, 4, 0.2)


def test_non_object_imputer_boost_rejected(tmp_path):
    with pytest.raises(ValidationError, match=r"config\.impute\.boost: expected an object"):
        _load(tmp_path, {"impute": {"boost": 3}})


@pytest.mark.parametrize(
    "payload, where",
    [
        ({"k": "5"}, r"config: k must be int, got '5'"),
        ({"clusters_k": 2.5}, r"config: clusters_k must be int"),
        ({"rf": {"n_trees": "3"}}, r"config\.rf: n_trees must be int"),
        ({"rf": {"bootstrap": 1}}, r"config\.rf: bootstrap must be bool"),
        ({"boosted": {"eta": "0.1"}}, r"config\.boosted: eta must be float"),
        ({"impute": {"min_rows": True}}, r"config\.impute: min_rows must be int"),
        ({"impute": {"boost": {"max_depth": 2.0}}}, r"config\.impute\.boost: max_depth must be int"),
    ],
    ids=["k", "clusters_k", "rf.n_trees", "rf.bootstrap", "boosted.eta", "impute.min_rows", "impute.boost.max_depth"],
)
def test_wrong_typed_values_rejected_naming_the_field(tmp_path, capsys, payload, where):
    with pytest.raises(ValidationError, match=where):
        _load(tmp_path, payload)
    rc = cli_main(["run-all", "--config", str(tmp_path / "cfg.json"), "--input", "x.csv", "--out", "y"])
    assert rc == 1
    assert "internal error" not in capsys.readouterr().err


def test_ints_accepted_for_floats_and_null_for_optionals(tmp_path):
    cfg = _load(tmp_path, {"boosted": {"eta": 1, "gamma": 0}, "rf": {"max_depth": None, "mtry": None}})
    assert cfg.boosted.eta == 1 and cfg.rf.max_depth is None


@pytest.mark.parametrize(
    "payload, where",
    [
        ({"rf": {"n_trees": 0}}, r"config\.rf: n_trees must be >= 1, got 0"),
        ({"boosted": {"n_rounds": 0}}, r"config\.boosted: n_rounds must be >= 1, got 0"),
        ({"boosted": {"row_subsample": 0.0}}, r"config\.boosted: row_subsample must be in \(0, 1\]"),
        ({"impute": {"boost": {"col_subsample": 1.5}}}, r"config\.impute\.boost: col_subsample must be in"),
        ({"impute": {"outer_k": 1}}, r"config\.impute: outer_k must be >= 2, got 1"),
        ({"impute": {"inner_k": 0}}, r"config\.impute: inner_k must be >= 2, got 0"),
        ({"impute": {"min_rows": -5}}, r"config\.impute: min_rows must be >= 0, got -5"),
    ],
    ids=["rf.n_trees", "boosted.n_rounds", "boosted.row_subsample", "impute.boost.col_subsample",
         "impute.outer_k", "impute.inner_k", "impute.min_rows"],
)
def test_out_of_range_counts_rejected_naming_the_field(tmp_path, payload, where):
    with pytest.raises(ValidationError, match=where):
        _load(tmp_path, payload)
