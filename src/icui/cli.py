"""Command-line front end for the full pipeline.

Subcommands: synth, prep, impute, report, run-all.  One JSON
config file drives everything; any flag overrides its config key, unknown
keys are rejected.  Exit codes: 0 success, 1 bad input or usage, 2 runtime
failure.  The single wall-clock timestamp lives in run_meta.json so every
other artifact is byte-reproducible from the config seed.
"""

from __future__ import annotations

import argparse
import csv
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
from .cluster import HeatmapTable, build_heatmap, fold_mean_order
from .data import (
    PreprocessPlan,
    apply_preprocess,
    drop_incomplete_rows,
    exclude_and_rename,
    load_csv,
    preset_plan,
    summarize,
    write_csv,
    write_json,
    write_table,
)
from .errors import IcuiError, ParseError, ValidationError
from .evaluate import MODEL_BOOSTED, MODEL_RF, CvResult, CvSummary, FoldMetrics, ModelSpec, run_cv
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


def _typed(cls, values: dict, where: str, error=ValidationError) -> dict:
    """`values`, each checked against the annotated type of `cls`'s field of that name.

    An int passes for a float; of a generic such as `list[str]`, only the
    container is checked.  A mismatch raises `error` naming `where` and the key.
    """
    fields = {f.name: f for f in dataclasses.fields(cls)}
    hints = typing.get_type_hints(cls)
    for key, value in values.items():
        union = typing.get_origin(hints[key]) in (typing.Union, types.UnionType)
        options = typing.get_args(hints[key]) if union else (hints[key],)
        allowed = tuple(typing.get_origin(t) or t for t in options)
        allowed += (int,) if float in allowed else ()
        if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed):
            raise error(f"{where}: {key} must be {fields[key].type}, got {value!r}")
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

# summary.json's schema, written by `_summary_payload` and read back by
# `report`: the CvSummary fields common to all models at the top level; per
# model its own fields, one object per metric holding the fields
# f"{metric}_{stat}", and "folds", one object of FoldMetrics fields per fold
_RUN_KEYS = ("k", "seed", "baseline")
_MODEL_KEYS = ("n_valid_folds",)
_METRIC_STATS = [(m, stat) for m in ("auroc", "auprc") for stat in ("mean", "std", "formatted")]
_FOLD_KEYS = ("fold", "n_test", "n_pos", "auroc", "auprc", "error")
# per fold: (file name prefix, FoldMetrics field, header) of each curve table
_CURVES = (("roc", "roc_points", ["fpr", "tpr"]), ("pr", "pr_points", ["recall", "precision"]))


def _read_float_table(path: str, lead: list[str], keyed: bool = False):
    """(float column labels, row names, cells) of a CSV table as run-all writes it.

    The header is `lead`, or with `keyed` `lead` and at least one label, each
    row then starting with a name.  At least one row follows, each as wide as
    the header, every other cell a finite float.  Anything else is a
    ParseError naming `path`.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    head, body = (rows[0], rows[1:]) if rows else ([], [])
    if head[: len(lead)] != lead or (len(head) > len(lead)) != keyed:
        raise ParseError(f"{path}: header must be {','.join(lead)}{',...' if keyed else ''}")
    if not body:
        raise ParseError(f"{path}: no rows after the header")
    for i, row in enumerate(body, start=1):
        if len(row) != len(head):
            raise ParseError(f"{path}: row {i}: expected {len(head)} fields, got {len(row)}")
    try:
        cells = np.array([[float(v) for v in row[keyed:]] for row in body], dtype=np.float64)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
    if not np.isfinite(cells).all():
        raise ParseError(f"{path}: non-finite cell")
    return head[keyed:], [row[0] for row in body], cells


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
    models = {}
    for name, res in results.items():
        s = res.summary
        entry = models[name] = {key: getattr(s, key) for key in _MODEL_KEYS}
        for metric, stat in _METRIC_STATS:
            entry.setdefault(metric, {})[stat] = getattr(s, f"{metric}_{stat}")
        entry["folds"] = [{key: getattr(m, key) for key in _FOLD_KEYS} for m in s.folds]
    any_summary = next(iter(results.values())).summary
    return {
        **{key: getattr(any_summary, key) for key in _RUN_KEYS},
        "clusters_k": cfg.clusters_k,
        "n_rows": ds.n_rows,
        "n_features": len(ds.columns),
        "models": models,
    }


def _emit_model_artifacts(cfg: RunConfig, model: str, result: CvResult) -> None:
    mdir = os.path.join(cfg.out, model)
    os.makedirs(mdir, exist_ok=True)
    for m in result.summary.folds:
        for curve, points, header in _CURVES:
            rows = ([repr(float(a)), repr(float(b))] for a, b in getattr(m, points))
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


def _cmd_prep(args) -> int:
    cfg = _config_from_args(args)
    _require(cfg, "out")
    ds, plan = _load_input(cfg)
    out_ds = apply_preprocess(ds, plan)
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, "prepped.csv")
    write_csv(out_ds, path)
    info = summarize(out_ds)
    print(f"wrote {path} ({info.n_rows} rows, {info.n_features} features, "
          f"prevalence {info.prevalence:.4f})")
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
    """run-all: prep, impute or drop, cross-validate, explain and plot in one pass."""
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


def _cmd_report(args) -> int:
    """Re-render the SVG panels from an output directory's CSV/JSON tables.

    Every table is read before the first panel is written.
    """
    cfg = _config_from_args(args)
    _require(cfg, "out")
    spath = os.path.join(cfg.out, "summary.json")
    payload = _read_json_object(spath, "summary")
    panels = []
    try:
        for model, entry in sorted(payload["models"].items()):
            if model not in MODELS:
                raise ParseError(f"{spath}: unknown model {model!r}")
            mdir = os.path.join(cfg.out, model)
            folds = [
                FoldMetrics(**_typed(FoldMetrics, {key: row[key] for key in _FOLD_KEYS}, spath, ParseError))
                for row in entry["folds"]
            ]
            for m in folds:
                if m.error is None:
                    for curve, points, header in _CURVES:
                        path = os.path.join(mdir, f"{curve}_fold{m.fold + 1}.csv")
                        cells = _read_float_table(path, header)[2]
                        setattr(m, points, list(map(tuple, cells.tolist())))
            fields = {
                **{key: payload[key] for key in _RUN_KEYS},
                **{key: entry[key] for key in _MODEL_KEYS},
                **{f"{metric}_{stat}": entry[metric][stat] for metric, stat in _METRIC_STATS},
            }
            summary = CvSummary(model=model, folds=folds, **_typed(CvSummary, fields, spath, ParseError))
            heatmap = None
            hpath = os.path.join(mdir, f"heatmap_{model}.csv")
            if os.path.exists(hpath):
                labels, names, cells = _read_float_table(hpath, ["feature"], keyed=True)
                heatmap = HeatmapTable(feature_names=names, column_labels=labels, cells=cells)
            panels.append((summary, heatmap, mdir))
    except (KeyError, TypeError, AttributeError) as exc:
        raise ParseError(f"{spath}: missing or malformed entry: {exc!r}") from None
    for summary, heatmap, mdir in panels:
        for path in emit_plots(summary, heatmap, mdir):
            print(f"wrote {path}")
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
        ("prep", _cmd_prep, "apply a preprocess plan and write prepped.csv"),
        ("impute", _cmd_impute, "fit imputers on the whole table and write imputed.csv"),
        ("report", _cmd_report, "re-render SVG panels from an output directory"),
        ("run-all", _cmd_pipeline, "prep, impute, train, explain, report in one pass"),
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
