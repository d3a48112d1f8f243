"""One child process of the icui benchmark: a set-up or one `run-all` call.

Started by perfbench/run.py as

    python3 perfbench/child.py <job.json>

The job names the checkout's `src` directory, the task and a result path.
Tasks:

- "setup": time `import icui`, then write the workload's synthetic CSV with
  `icui.synth.write_synth`.
- "run": call `icui.cli.cli_main(argv)` once and record wall time, CPU time
  and peak RSS.  When the job asks for a trace, the public layer functions
  are wrapped where their callers look them up, spans are kept in memory
  with their parents, and per-layer times and exact counters are computed
  when the call returns.  The program itself is not modified.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
from collections import Counter

# The layers are the modules of src/icui.  A span's layer is the first part of
# its name; the imputers' boosted fits are `boost` work, reported separately
# as impute.boost_fit_s.
LAYERS = ("data", "impute", "boost", "forest", "attribution", "cluster", "evaluate", "plots", "cli")
ROOT_SPAN = "cli.run_all"


def _span_layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder: [name, parent index, start ns, end ns]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def open(self, name: str) -> list:
        span = [name, self.stack[-1] if self.stack else -1, time.perf_counter_ns(), 0]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[3] = time.perf_counter_ns()
        self.stack.pop()

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace owner.attr by a timed wrapper; `count(counts, result, args)`
        derives exact counters from the return value."""
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                count(self.counts, result, args)
            return result

        setattr(owner, attr, traced)

    def summary(self) -> dict[str, float]:
        """Per-span-name and per-layer total and self seconds, plus counters."""
        n = len(self.spans)
        child_ns = [0] * n
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        name_total: Counter = Counter()
        name_self: Counter = Counter()
        layer_total: Counter = Counter()
        layer_self: Counter = Counter()
        for i, (name, parent, start, end) in enumerate(self.spans):
            dur = end - start
            layer = _span_layer(name)
            name_total[name] += dur
            name_self[name] += dur - child_ns[i]
            layer_self[layer] += dur - child_ns[i]
            outer = parent
            while outer >= 0 and _span_layer(self.spans[outer][0]) != layer:
                outer = self.spans[outer][1]
            if outer < 0:  # outermost span of its layer
                layer_total[layer] += dur
        out: dict[str, float] = {}
        for name in name_total:
            out[f"span.{name}.total_s"] = name_total[name] / 1e9
            out[f"span.{name}.self_s"] = name_self[name] / 1e9
        for layer in LAYERS:
            out[f"{layer}.total_s"] = layer_total[layer] / 1e9
            out[f"{layer}.self_s"] = layer_self[layer] / 1e9
        for key, value in self.counts.items():
            out[f"count.{key}"] = value
        return out


def _count_nodes(key):
    def count(counts, model, args):
        counts[key] += sum(tree.n_nodes for tree in model.trees)

    return count


def _count_imputer_fit(counts, model, args):
    counts["impute.boosted_fits"] += 1
    counts["impute.boost_nodes"] += sum(tree.n_nodes for tree in model.trees)


def _count_chosen(counts, model, args):
    ds = args[0]
    for name, entry in model.columns.items():
        if ds.missing[name].any():
            counts[f"impute.chosen_{entry.algorithm}"] += 1


def _count_select(counts, result, args):
    counts["impute.select_calls"] += 1


def _count_shap_rows(counts, attr, args):
    counts["attribution.rows"] += int(attr.phi.shape[0])


def _count_k(counts, result, args):
    counts["cluster.k_used"] += int(result[1].k)


def install_tracer(tracer: Tracer) -> None:
    cli = sys.modules["icui.cli"]
    ev = sys.modules["icui.evaluate"]
    # `icui.impute` as an attribute is the re-exported function, not the module.
    imp = sys.modules["icui.impute"]
    for owner, attr, name, count in (
        (cli, "load_csv", "data.load_csv", None),
        (cli, "apply_preprocess", "data.apply_preprocess", None),
        (cli, "drop_incomplete_rows", "data.drop_incomplete_rows", None),
        (cli, "run_cv", "evaluate.run_cv", None),
        (cli, "emit_plots", "plots.emit_plots", None),
        (cli, "attribution_to_csv", "attribution.to_csv", None),
        (ev, "fit_forest", "forest.fit_forest", _count_nodes("forest.nodes")),
        (ev, "predict_proba_forest", "forest.predict", None),
        (ev, "forest_importance", "forest.importance", None),
        (ev, "fit_boosted", "boost.fit_boosted", _count_nodes("boost.nodes")),
        (ev, "predict_proba_boosted", "boost.predict", None),
        (ev, "tree_shap", "attribution.tree_shap", _count_shap_rows),
        (ev, "cluster_importance", "cluster.cluster_importance", _count_k),
        (ev, "auroc", "evaluate.auroc", None),
        (ev, "auprc", "evaluate.auprc", None),
        (imp, "fit_imputation", "impute.fit_imputation", _count_chosen),
        (imp, "impute", "impute.impute", None),
        (imp, "select_imputer", "impute.select_imputer", _count_select),
        (imp, "fit_boosted_matrix", "boost.fit_boosted_matrix", _count_imputer_fit),
    ):
        tracer.wrap(owner, attr, name, count)


def _import_icui(src: str):
    sys.path.insert(0, src)
    import icui

    if os.path.dirname(os.path.dirname(os.path.abspath(icui.__file__))) != os.path.abspath(src):
        raise SystemExit(f"icui imported from {icui.__file__}, not from {src}")


def _setup(job: dict) -> dict:
    t0 = time.perf_counter()
    _import_icui(job["src"])
    t1 = time.perf_counter()
    from icui.synth import SynthSpec, write_synth

    write_synth(SynthSpec(**job["synth"]), job["out"])
    t2 = time.perf_counter()
    return {"import_s": t1 - t0, "synth_s": t2 - t1, "numpy": sys.modules["numpy"].__version__}


def _run(job: dict) -> dict:
    _import_icui(job["src"])
    from icui.cli import cli_main

    tracer = None
    if job["trace"]:
        tracer = Tracer()
        install_tracer(tracer)
    with open(job["log"], "w", encoding="utf-8") as log, contextlib.redirect_stdout(log):
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        root = tracer.open(ROOT_SPAN) if tracer else None
        rc = cli_main(job["argv"])
        if tracer:
            tracer.close(root)
        t1 = time.perf_counter()
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "rc": rc,
        "run_s": t1 - t0,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,  # Linux reports KiB
    }
    if tracer:
        result["layers"] = tracer.summary()
        with open(job["spans"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return result


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    result = _setup(job) if job["task"] == "setup" else _run(job)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
