"""Command-line front end for the full pipeline.

Subcommands: synth writes a seeded synthetic table, impute writes the
imputed table, and run-all goes from one CSV to one output directory.  One
JSON config file drives everything; any flag overrides its config key,
unknown keys are rejected.  Exit codes: 0 success, 1 bad input or usage, 2
runtime failure.  The single wall-clock timestamp lives in run_meta.json so
every other artifact is byte-reproducible from the config seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import types
import typing
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .attribution import attribution_to_csv
from .boost import BoostParams
from .cluster import build_heatmap, fold_mean_order
from .data import (
    PreprocessPlan,
    apply_preprocess,
    drop_incomplete_rows,
    exclude_and_rename,
    load_csv,
    preset_plan,
    write_csv,
    write_json,
    write_table,
)
from .errors import IcuiError, ParseError, ValidationError
from .evaluate import MODEL_BOOSTED, MODEL_RF, CvResult, ModelSpec, run_cv
from .forest import ForestParams
from .impute import ImputeParams, fit_imputation, impute
from .plots import emit_plots
from .synth import SynthSpec, write_synth

STRATEGY_IMPUTE = "impute"
STRATEGY_DROP = "drop"
STRATEGIES = (STRATEGY_IMPUTE, STRATEGY_DROP)
MODELS = (MODEL_RF, MODEL_BOOSTED)
MODEL_CHOICES = MODELS + ("both",)


@dataclass
class RunConfig:
    input: str | None = None
    out: str | None = None
    preset: str | None = None
    plan: str | None = None  # path to a preprocess-plan JSON file
    strategy: str = STRATEGY_IMPUTE
    model: str = "both"
    k: int = 5
    clusters_k: int = 20
    seed: int = 0
    rf: ForestParams = field(default_factory=ForestParams)
    boosted: BoostParams = field(default_factory=BoostParams)
    impute: ImputeParams = field(default_factory=lambda: ImputeParams(algorithm="select"))

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValidationError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.model not in MODEL_CHOICES:
            raise ValidationError(f"model must be one of {MODEL_CHOICES}, got {self.model!r}")
        if self.k < 2:
            raise ValidationError("k must be >= 2")
        if self.clusters_k < 1:
            raise ValidationError("clusters_k must be >= 1")
        if self.preset is not None and self.plan is not None:
            raise ValidationError("give either a preset or a plan file, not both")

    def models(self) -> list[str]:
        return list(MODELS) if self.model == "both" else [self.model]


def _typed(cls, values: dict, where: str) -> dict:
    """`values`, each checked against the annotated type of `cls`'s field of that name.

    An int passes for a float; of a generic such as `list[str]`, only the
    container is checked.  A mismatch is a ValidationError naming `where` and the key.
    """
    fields = {f.name: f for f in dataclasses.fields(cls)}
    hints = typing.get_type_hints(cls)
    for key, value in values.items():
        union = typing.get_origin(hints[key]) in (typing.Union, types.UnionType)
        options = typing.get_args(hints[key]) if union else (hints[key],)
        allowed = tuple(typing.get_origin(t) or t for t in options)
        allowed += (int,) if float in allowed else ()
        if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed):
            raise ValidationError(f"{where}: {key} must be {fields[key].type}, got {value!r}")
    return values


def _section(base, data, where: str):
    """`base` (a params dataclass) with the keys of the JSON object `data` replaced.

    Keys absent from `data` keep `base`'s values, so a partial section keeps
    the documented defaults.  Each value must match its field's annotated
    type (see `_typed`); a field that is itself a params dataclass is merged
    the same way, one level down.
    """
    if not isinstance(data, dict):
        raise ValidationError(f"{where}: expected an object")
    unknown = sorted(set(data) - {f.name for f in dataclasses.fields(base)})
    if unknown:
        raise ValidationError(f"{where}: unknown keys {unknown}")
    hints = typing.get_type_hints(type(base))
    nested = {key for key in data if dataclasses.is_dataclass(hints[key])}
    values = _typed(type(base), {k: v for k, v in data.items() if k not in nested}, where)
    values.update({key: _section(getattr(base, key), data[key], f"{where}.{key}") for key in nested})
    try:
        return dataclasses.replace(base, **values)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _read_json_object(path: str, what: str) -> dict:
    """The JSON object in the `what` file at `path`."""
    if not os.path.exists(path):
        raise ValidationError(f"{what} file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: bad JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParseError(f"{path}: {what} must be a JSON object")
    return payload


def load_run_config(config_path: str | None, overrides: dict | None = None) -> RunConfig:
    """Config file merged with flag overrides over RunConfig's defaults; every key is checked."""
    raw = {} if config_path is None else _read_json_object(config_path, "config")
    raw.update({k: v for k, v in (overrides or {}).items() if v is not None})
    return _section(RunConfig(), raw, "config")


def _resolve_plan(cfg: RunConfig) -> PreprocessPlan:
    if cfg.preset is not None:
        return preset_plan(cfg.preset)
    if cfg.plan is not None:
        return _section(PreprocessPlan(), _read_json_object(cfg.plan, "plan"), "plan")
    return PreprocessPlan()


def _require(cfg: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) is None:
            raise ValidationError(f"{name} path required (flag --{name} or config key '{name}')")


def _load_input(cfg: RunConfig):
    _require(cfg, "input")
    if not os.path.exists(cfg.input):
        raise ValidationError(f"input file not found: {cfg.input}")
    plan = _resolve_plan(cfg)
    ds = load_csv(cfg.input, label_column=plan.label)
    return ds, plan


def _cpu_dispatch() -> list[str]:
    """numpy's SIMD dispatch targets on this CPU; they choose the np.exp kernel boosted outputs depend on."""
    if int(np.__version__.split(".")[0]) >= 2:
        from numpy._core import _multiarray_umath as umath
    else:
        from numpy.core import _multiarray_umath as umath
    return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]


def _write_meta(cfg: RunConfig, results: dict[str, CvResult]) -> None:
    meta = {
        "command": "run-all",
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "version": __version__,
        "numpy_version": np.__version__,
        "numpy_cpu_dispatch": _cpu_dispatch(),
        "config": dataclasses.asdict(cfg),
        # per model and fold, the k the importance clustering ran with: at most
        # clusters_k, fewer when a fold's profile has fewer distinct scores
        "cluster_k": {
            model: [None if r is None else r.k for r in result.cluster_reports]
            for model, result in results.items()
        },
    }
    write_json(os.path.join(cfg.out, "run_meta.json"), meta)


# ------------------------------------------------------------- artifact files

def _importance_rows(profiles: list) -> tuple[list[str], list]:
    """Header and rows of per-fold normalized scores plus their mean, descending on the mean."""
    valid = [p for p in profiles if p is not None]
    names = list(valid[0].names)
    mean, order = fold_mean_order(valid)
    cols = [[""] * len(names) if p is None else list(map(repr, p.scores.tolist())) for p in profiles]
    cols.append(list(map(repr, mean.tolist())))
    header = ["feature"] + [f"fold{i + 1}" for i in range(len(profiles))] + ["mean"]
    return header, [[names[i], *(c[i] for c in cols)] for i in order.tolist()]


def _summary_payload(cfg: RunConfig, ds, results: dict[str, CvResult]) -> dict:
    """summary.json's payload.

    The run's CvSummary fields sit at the top level; per model, its valid-fold
    count, one object per metric holding the f"{metric}_{stat}" fields, and
    one object of FoldMetrics fields per fold.
    """
    models = {}
    for name, res in results.items():
        s = res.summary
        models[name] = {
            "n_valid_folds": s.n_valid_folds,
            **{m: {stat: getattr(s, f"{m}_{stat}") for stat in ("mean", "std", "formatted")}
               for m in ("auroc", "auprc")},
            "folds": [{key: getattr(f, key) for key in ("fold", "n_test", "n_pos", "auroc", "auprc", "error")}
                      for f in s.folds],
        }
    s = next(iter(results.values())).summary
    return {
        "k": s.k,
        "seed": s.seed,
        "baseline": s.baseline,
        "clusters_k": cfg.clusters_k,
        "n_rows": ds.n_rows,
        "n_features": len(ds.names),
        "models": models,
    }


def _emit_model_artifacts(cfg: RunConfig, model: str, result: CvResult) -> None:
    mdir = os.path.join(cfg.out, model)
    os.makedirs(mdir, exist_ok=True)
    curves = (("roc", ["fpr", "tpr"]), ("pr", ["recall", "precision"]))
    for m in result.summary.folds:
        for (curve, header), points in zip(curves, (m.roc_points, m.pr_points)):
            rows = ([repr(float(a)), repr(float(b))] for a, b in points)
            write_table(os.path.join(mdir, f"{curve}_fold{m.fold + 1}.csv"), header, rows)
    if any(p is not None for p in result.importances):
        header, rows = _importance_rows(result.importances)
        write_table(os.path.join(mdir, f"importance_{model}.csv"), header, rows)
    pairs = [
        (p, r) for p, r in zip(result.importances, result.cluster_reports)
        if p is not None and r is not None
    ]
    heatmap = None
    if pairs:
        heatmap = build_heatmap([p for p, _ in pairs], [r for _, r in pairs])
        header = ["feature", *heatmap.column_labels]
        rows = ([n, *map(repr, r.tolist())] for n, r in zip(heatmap.feature_names, heatmap.cells))
        write_table(os.path.join(mdir, f"heatmap_{model}.csv"), header, rows)
    for m, attr in zip(result.summary.folds, result.attributions):
        if attr is not None:
            attribution_to_csv(attr, os.path.join(mdir, f"shap_fold{m.fold + 1}.csv"))
    emit_plots(result.summary, heatmap, mdir)


def _run_models(cfg: RunConfig, ds) -> tuple[dict[str, CvResult], object]:
    if cfg.strategy == STRATEGY_DROP:
        work = drop_incomplete_rows(ds)
        if work.n_rows < cfg.k:
            raise ValidationError(f"strategy {STRATEGY_DROP!r} keeps {work.n_rows} of {ds.n_rows} rows, "
                                  f"fewer than k={cfg.k} folds")
        impute_cfg = None
    else:
        work = ds
        impute_cfg = cfg.impute
    specs = [ModelSpec(model, cfg.rf if model == "rf" else cfg.boosted) for model in cfg.models()]
    results = run_cv(
        work, specs, k=cfg.k, seed=cfg.seed, impute_cfg=impute_cfg, clusters_k=cfg.clusters_k
    )
    for model, result in results.items():
        if result.summary.n_valid_folds == 0:  # nothing to plot: fail before the first write
            first = result.summary.folds[0]
            raise ValidationError(f"label {work.label_name!r}: no {model} fold can be scored; "
                                  f"fold {first.fold + 1}: {first.error}")
    return results, work


# ----------------------------------------------------------------- subcommands


def _cmd_synth(args) -> int:
    spec = SynthSpec(
        n_rows=args.rows,
        n_features=args.features,
        n_signal=args.signal,
        prevalence=args.prevalence,
        missing_rate=args.missing_rate,
        seed=args.seed,
    )
    csv_path, truth_path = write_synth(spec, args.out)
    print(f"wrote {csv_path}")
    print(f"wrote {truth_path}")
    return 0


def _cmd_impute(args) -> int:
    cfg = _config_from_args(args)
    _require(cfg, "out")
    ds, plan = _load_input(cfg)
    ds = exclude_and_rename(ds, plan)  # load_csv took out the label if there is one; imputing needs none
    model = fit_imputation(ds, cfg.impute)
    out_ds = impute(ds, model)
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, "imputed.csv")
    write_csv(out_ds, path)
    report = {
        "columns": {
            name: {"algorithm": e.algorithm, "note": e.note}
            for name, e in sorted(model.columns.items())
        },
        "score_rows": [dataclasses.asdict(r) for r in model.score_rows],
        "warnings": list(model.warnings),
    }
    write_json(os.path.join(cfg.out, "impute_report.json"), report)
    print(f"wrote {path}")
    return 0


def _cmd_pipeline(args) -> int:
    """run-all: preprocess, impute or drop, cross-validate, explain and plot in one pass."""
    cfg = _config_from_args(args)
    _require(cfg, "out")
    ds, plan = _load_input(cfg)
    prepped = apply_preprocess(ds, plan)
    results, work = _run_models(cfg, prepped)
    os.makedirs(cfg.out, exist_ok=True)
    write_json(os.path.join(cfg.out, "summary.json"), _summary_payload(cfg, work, results))
    for model, result in results.items():
        _emit_model_artifacts(cfg, model, result)
    _write_meta(cfg, results)
    for model, result in results.items():
        s = result.summary
        print(f"{model}: AUROC {s.auroc_formatted} AUPRC {s.auprc_formatted} "
              f"({s.n_valid_folds}/{cfg.k} folds)")
    print(f"wrote {cfg.out}")
    return 0


# ----------------------------------------------------------------- the parser


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits with 2 by default; we want 1
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def _add_common(p) -> None:
    p.add_argument("--config", help="JSON config file; flags override its keys")
    p.add_argument("--input", help="input CSV path")
    p.add_argument("--out", help="output directory")
    p.add_argument("--preset", help="built-in preprocess plan name")
    p.add_argument("--plan", help="preprocess plan JSON file")
    p.add_argument("--strategy", choices=STRATEGIES, help="missing-data handling")
    p.add_argument("--model", choices=MODEL_CHOICES, help="model family to run")
    p.add_argument("--k", type=int, help="cross-validation folds")
    p.add_argument("--clusters-k", type=int, dest="clusters_k", help="importance clusters")
    p.add_argument("--seed", type=int, help="master seed")


def build_parser() -> _Parser:
    parser = _Parser(prog="icui", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a seeded synthetic dataset")
    p.add_argument("--rows", type=int, default=2000)
    p.add_argument("--features", type=int, default=66)
    p.add_argument("--signal", type=int, default=10)
    p.add_argument("--prevalence", type=float, default=0.2365)
    p.add_argument("--missing-rate", type=float, default=0.0, dest="missing_rate")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    for name, func, blurb in (
        ("impute", _cmd_impute, "fit imputers on the whole table and write imputed.csv"),
        ("run-all", _cmd_pipeline, "preprocess, impute, train, explain and plot in one pass"),
    ):
        p = sub.add_parser(name, help=blurb)
        _add_common(p)
        p.set_defaults(func=func)
    return parser


def _config_from_args(args) -> RunConfig:
    keys = ("input", "out", "preset", "plan", "strategy", "model", "k", "clusters_k", "seed")
    overrides = {k: getattr(args, k, None) for k in keys}
    return load_run_config(getattr(args, "config", None), overrides)


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if getattr(args, "command", None) is None:
        print(parser.format_usage(), file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except (ValidationError, ParseError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except IcuiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - last-resort guard
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
