"""icui benchmark: wall time of `icui run-all` on two synthetic workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pipeline-drop --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

Each invocation, for one workload and one seed:

1. set-up: SETUP_REPS child processes each import icui and write the
   workload's CSV with `icui.synth.write_synth` (setup_s is their median);
2. warm-up: one traced `run-all` child whose outputs are the reference for
   the checks and whose exact counters are checked against the workload;
3. measurement: closed loop, one child at a time, each a fresh Python process
   calling `icui.cli.cli_main(["run-all", ...])`, for --seconds seconds.
   With --trace 1 untraced and traced children alternate, so the tracing
   overhead is measured in the same invocation.

Every `run-all` child must exit 0, write the full artifact set, reproduce the
warm-up's sha256 digest of every artifact but run_meta.json, and recover the
planted signal (AUROC above a floor).  The last stdout line is one JSON object
with keys correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.  A record
of the machine, the resolved config and every sample goes to
.perfbench/<workload>-trace<0|1>/record.json in the checkout.

The seed feeds only the synthetic data and run-all's --seed.  ICUI_THREADS is
removed from the children's environment, so the program runs on one thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
SETUP_REPS = 5
TIME_LIMIT_S = 150.0  # one invocation must end well within 180 s
AUROC_FLOOR = 0.6  # chance is 0.5; every workload plants signal features


def _nonzero(*keys):
    return lambda c: sum(c.get(k, 0) for k in keys) > 0


def _zero(*keys):
    return lambda c: sum(c.get(k, 0) for k in keys) == 0


# Each workload isolates a different layer mix of the same pipeline; the
# counter expectations stop a resize from silently skipping a layer.  There
# are only two, so that each run can be long: on a shared 2-vCPU host the
# speed of one `run-all` call drifts by 10-25 % over tens of seconds, and a
# median over a long run is what keeps repeated runs within their bounds.
# pipeline-drop runs TreeSHAP too (about 15 % of its time); 8 features with 2
# signal still give pipeline-impute a min/max pair and 4 categorical columns.
WORKLOADS = {
    "pipeline-drop": {
        "synth": {"n_rows": 400, "missing_rate": 0.005},
        "config": {
            "strategy": "drop",
            "rf": {"n_trees": 12},
            "boosted": {"n_rounds": 4},
        },
        "models": ("rf", "boosted"),
        "expect": {
            "forest.nodes > 0": _nonzero("forest.nodes"),
            "boost.nodes > 0": _nonzero("boost.nodes"),
            "attribution.rows > 0": _nonzero("attribution.rows"),
            "impute.boosted_fits == 0": _zero("impute.boosted_fits"),
        },
        "mix": (
            "forest.fit_forest_s + boost.fit_boosted_s >= 0.7 * trace.run_s",
            lambda m: m["forest.fit_forest_s"] + m["boost.fit_boosted_s"] >= 0.7 * m["trace.run_s"],
        ),
    },
    "pipeline-impute": {
        "synth": {"n_rows": 300, "n_features": 8, "n_signal": 2, "missing_rate": 0.1},
        "config": {
            "strategy": "impute",
            "k": 2,
            "rf": {"n_trees": 5},
            "boosted": {"n_rounds": 5},
            "impute": {
                "algorithm": "select",
                "boost": {"n_rounds": 1, "max_depth": 2, "eta": 0.5},
            },
        },
        "models": ("rf", "boosted"),
        "expect": {
            "impute.boosted_fits > 0": _nonzero("impute.boosted_fits"),
            "impute.chosen_a1 + a2 + a3 > 0": _nonzero(
                "impute.chosen_a1", "impute.chosen_a2", "impute.chosen_a3"
            ),
        },
        "mix": (
            "impute.fit_imputation_s >= 0.9 * trace.run_s",
            lambda m: m["impute.fit_imputation_s"] >= 0.9 * m["trace.run_s"],
        ),
    },
}

E2E = (("run_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))

# Per-layer metric -> keys of the child's trace summary whose values it sums.
PER_LAYER = {
    "data.total_s": ("data.total_s",),
    "data.load_csv_s": ("span.data.load_csv.total_s",),
    "data.apply_preprocess_s": ("span.data.apply_preprocess.total_s",),
    "data.drop_incomplete_rows_s": ("span.data.drop_incomplete_rows.total_s",),
    "impute.total_s": ("impute.total_s",),
    "impute.self_s": ("impute.self_s",),
    "impute.fit_imputation_s": ("span.impute.fit_imputation.total_s",),
    "impute.select_imputer_s": ("span.impute.select_imputer.total_s",),
    "impute.impute_s": ("span.impute.impute.total_s",),
    "impute.boost_fit_s": ("span.boost.fit_boosted_matrix.total_s",),
    "impute.boosted_fits": ("count.impute.boosted_fits",),
    "impute.boost_nodes": ("count.impute.boost_nodes",),
    "impute.select_calls": ("count.impute.select_calls",),
    "impute.chosen_a0": ("count.impute.chosen_a0",),
    "impute.chosen_a1": ("count.impute.chosen_a1",),
    "impute.chosen_a2": ("count.impute.chosen_a2",),
    "impute.chosen_a3": ("count.impute.chosen_a3",),
    "boost.total_s": ("boost.total_s",),
    "boost.fit_boosted_s": ("span.boost.fit_boosted.total_s",),
    "boost.predict_s": ("span.boost.predict.total_s",),
    "boost.nodes": ("count.boost.nodes",),
    "forest.total_s": ("forest.total_s",),
    "forest.fit_forest_s": ("span.forest.fit_forest.total_s",),
    "forest.predict_s": ("span.forest.predict.total_s",),
    "forest.importance_s": ("span.forest.importance.total_s",),
    "forest.nodes": ("count.forest.nodes",),
    "attribution.total_s": ("attribution.total_s",),
    "attribution.tree_shap_s": ("span.attribution.tree_shap.total_s",),
    "attribution.to_csv_s": ("span.attribution.to_csv.total_s",),
    "attribution.rows": ("count.attribution.rows",),
    "cluster.cluster_importance_s": ("span.cluster.cluster_importance.total_s",),
    "cluster.k_used": ("count.cluster.k_used",),
    "evaluate.total_s": ("evaluate.total_s",),
    "evaluate.run_cv_self_s": ("span.evaluate.run_cv.self_s",),
    "evaluate.metrics_s": ("span.evaluate.auroc.total_s", "span.evaluate.auprc.total_s"),
    "plots.emit_plots_s": ("span.plots.emit_plots.total_s",),
    "cli.self_s": ("cli.self_s",),
    "trace.run_s": ("cli.total_s",),
}


def _unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


class Bench:
    """One invocation: one workload, one seed, traced or not."""

    def __init__(self, root: str, workload: str, seed: int, seconds: int, trace: bool):
        self.root = root
        self.src = os.path.join(root, "src")
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = os.path.join(root, ".perfbench", f"{workload}-trace{int(trace)}")
        self.input_dir = os.path.join(self.work, "input")
        self.config_path = os.path.join(self.work, "config.json")
        self.t_start = time.perf_counter()
        self.env = {k: v for k, v in os.environ.items() if k != "ICUI_THREADS"}
        self.checks: dict[str, list[str]] = {}  # check name -> failure messages
        self.reference: dict[str, str] | None = None
        self.counters: dict[str, float] | None = None
        self.meta: dict | None = None
        self.aurocs: dict[str, float] | None = None
        self.numpy_version: str | None = None

    # ------------------------------------------------------------ children

    def _child(self, job: dict) -> dict | None:
        """Run one child process to completion; None if it failed."""
        job["src"] = self.src
        job["result"] = os.path.join(self.work, "result.json")
        job_path = os.path.join(self.work, "job.json")
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        if os.path.exists(job["result"]):
            os.remove(job["result"])
        remaining = TIME_LIMIT_S - (time.perf_counter() - self.t_start)
        with open(os.path.join(self.work, "child.err"), "w", encoding="utf-8") as err:
            try:
                proc = subprocess.run(
                    [sys.executable, CHILD, job_path],
                    cwd=self.root, env=self.env, stdout=err, stderr=err,
                    timeout=max(remaining, 1.0),
                )
            except subprocess.TimeoutExpired:
                self._fail("time limit", f"{job['task']} child killed after {TIME_LIMIT_S:.0f} s budget")
                return None
        if proc.returncode != 0 or not os.path.exists(job["result"]):
            with open(os.path.join(self.work, "child.err"), encoding="utf-8") as fh:
                tail = fh.read()[-400:]
            self._fail("exit code", f"{job['task']} child exited {proc.returncode}: {tail}")
            return None
        with open(job["result"], encoding="utf-8") as fh:
            return json.load(fh)

    def _fail(self, check: str, message: str) -> None:
        self.checks.setdefault(check, []).append(message)

    def _pass(self, check: str) -> None:
        self.checks.setdefault(check, [])

    # --------------------------------------------------------------- set-up

    def setup(self) -> list[float]:
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        times, digests = [], set()
        for _ in range(SETUP_REPS):
            res = self._child({
                "task": "setup",
                "synth": dict(self.spec["synth"], seed=self.seed),
                "out": self.input_dir,
            })
            if res is None:
                raise SystemExit("set-up failed; see " + os.path.join(self.work, "child.err"))
            times.append(res["import_s"] + res["synth_s"])
            self.numpy_version = res["numpy"]
            digests.add(_sha256(os.path.join(self.input_dir, "synth.csv")))
        if len(digests) != 1:
            self._fail("input", "write_synth gave different CSVs for one seed")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.spec["config"], fh)
        return times

    # ------------------------------------------------------------ run-all

    def run_all(self, traced: bool) -> tuple[dict | None, bool]:
        """One run-all child: its measurements (None if it did not finish
        with exit code 0) and whether its outputs passed every check."""
        out = os.path.join(self.work, "out")
        shutil.rmtree(out, ignore_errors=True)
        argv = [
            "run-all", "--config", self.config_path,
            "--input", os.path.join(self.input_dir, "synth.csv"),
            "--out", out, "--seed", str(self.seed),
        ]
        res = self._child({
            "task": "run", "argv": argv, "trace": traced,
            "log": os.path.join(self.work, "run.log"),
            "spans": os.path.join(self.work, "spans.json"),
        })
        if res is None:
            return None, False
        if res["rc"] != 0:
            self._fail("exit code", f"run-all returned {res['rc']}; see {self.work}/run.log")
            return None, False
        self._pass("exit code")
        ok = self._check_outputs(out)
        if traced:
            ok = self._check_counters(res["layers"]) and ok
        return res, ok

    def _check_outputs(self, out: str) -> bool:
        k = self.spec["config"].get("k", 5)
        expected = {"summary.json", "run_meta.json"}
        for m in self.spec["models"]:
            names = [f"roc_fold{i}.csv" for i in range(1, k + 1)]
            names += [f"pr_fold{i}.csv" for i in range(1, k + 1)]
            if m == "boosted":
                names += [f"shap_fold{i}.csv" for i in range(1, k + 1)]
            names += [f"importance_{m}.csv", f"heatmap_{m}.csv",
                      f"roc_{m}.svg", f"pr_{m}.svg", f"heatmap_{m}.svg"]
            expected |= {f"{m}/{n}" for n in names}
        found = {
            os.path.relpath(os.path.join(d, f), out).replace(os.sep, "/")
            for d, _, files in os.walk(out) for f in files
        }
        if found != expected:
            self._fail("artifacts", f"missing {sorted(expected - found)}, extra {sorted(found - expected)}")
            return False
        self._pass("artifacts")

        digests = {p: _sha256(os.path.join(out, p)) for p in sorted(found) if p != "run_meta.json"}
        if self.reference is None:
            self.reference = digests
        if digests != self.reference:
            bad = sorted(p for p in digests if digests[p] != self.reference.get(p))
            self._fail("digests", f"artifacts differ from the first run: {bad}")
            return False
        self._pass("digests")

        with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        with open(os.path.join(out, "run_meta.json"), encoding="utf-8") as fh:
            self.meta = json.load(fh)
        self.aurocs = {m: summary["models"][m]["auroc"]["mean"] for m in self.spec["models"]}
        low = {m: a for m, a in self.aurocs.items() if a is None or not a > AUROC_FLOOR}
        if low:
            self._fail("auroc", f"AUROC not above {AUROC_FLOOR}: {low}")
            return False
        self._pass("auroc")
        return True

    def _check_counters(self, layers: dict) -> bool:
        counters = {k[len("count."):]: v for k, v in layers.items() if k.startswith("count.")}
        ok = True
        for label, predicate in self.spec["expect"].items():
            if not predicate(counters):
                self._fail("counters", f"expected {label}, got {counters}")
                ok = False
        if self.counters is None:
            self.counters = counters
        elif counters != self.counters:
            self._fail("counters", f"counters differ between traced runs: {counters} vs {self.counters}")
            ok = False
        if ok:
            self._pass("counters")
        return ok

    # -------------------------------------------------------------- driver

    def measure(self) -> dict:
        setup_times = self.setup()
        attempted = failed = 0
        samples: dict[bool, list[dict]] = {False: [], True: []}

        def one(traced: bool, keep: bool) -> float:
            nonlocal attempted, failed
            t0 = time.perf_counter()
            res, ok = self.run_all(traced)
            attempted += 1
            failed += not ok
            if res is not None and keep:
                samples[traced].append(res)
            return time.perf_counter() - t0

        warm = one(True, keep=False)
        durations = [warm]
        loop_start = time.perf_counter()
        min_runs = 4 if self.trace else 3
        n = 0
        while True:
            est = statistics.median(durations)
            now = time.perf_counter()
            in_window = now - loop_start + est / 2 <= self.seconds
            in_budget = now - self.t_start + 2 * est <= TIME_LIMIT_S
            if not in_budget or not (in_window or n < min_runs):
                break
            durations.append(one(traced=self.trace and n % 2 == 1, keep=True))
            n += 1

        untraced = samples[False]
        if not untraced or (self.trace and not samples[True]):
            raise SystemExit(f"no measured run finished; checks: {self.checks}")
        run_med = statistics.median(r["run_s"] for r in untraced)
        if self.trace:
            metrics = {
                name: float(statistics.median(sum(r["layers"].get(k, 0) for k in keys) for r in samples[True]))
                for name, keys in PER_LAYER.items()
            }
            metrics["trace.overhead_s"] = metrics["trace.run_s"] - run_med
        else:
            metrics = {
                "run_s": run_med,
                "setup_s": statistics.median(setup_times),
                "cpu_s": statistics.median(r["cpu_s"] for r in untraced),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            }
        return {
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
            "samples": {
                "setup_s": setup_times,
                "run_s": [r["run_s"] for r in untraced],
                "traced_run_s": [r["layers"]["cli.total_s"] for r in samples[True]],
                "cpu_s": [r["cpu_s"] for r in untraced],
                "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
            },
        }

    def artifacts_sha256(self) -> str | None:
        """One digest over every artifact's digest, comparable across invocations."""
        if self.reference is None:
            return None
        return hashlib.sha256(json.dumps(self.reference, sort_keys=True).encode()).hexdigest()

    def machine(self) -> dict:
        cpu = None
        try:
            with open("/proc/cpuinfo", encoding="utf-8") as fh:
                cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
        except OSError:
            pass
        commit = None
        if os.path.exists(os.path.join(self.root, ".git")):
            try:
                proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=self.root,
                                      capture_output=True, text=True)
                commit = proc.stdout.strip() or None
            except OSError:
                pass
        return {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "cpu_model": cpu,
            "python": platform.python_version(),
            "numpy": self.numpy_version,
            "ICUI_THREADS": self.env.get("ICUI_THREADS"),
            "git_commit": commit,
        }


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def run_workload(root: str, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    bench = Bench(root, workload, seed, seconds, trace)
    result = bench.measure()
    correct = not any(bench.checks.values())
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "machine": bench.machine(),
        "synth": dict(bench.spec["synth"], seed=seed),
        "resolved_config": (bench.meta or {}).get("config"),
        "threads": (bench.meta or {}).get("threads"),
        "aurocs": bench.aurocs,
        "counters": bench.counters,
        "artifacts_sha256": bench.artifacts_sha256(),
        "checks": {k: (v or "ok") for k, v in bench.checks.items()},
        "correct": correct,
        **result,
    }
    with open(os.path.join(bench.work, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    print(f"workload {workload} seed {seed} trace {int(trace)}")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    print("config " + json.dumps(record["resolved_config"], sort_keys=True))
    print(f"artifacts sha256 {record['artifacts_sha256']} (all but run_meta.json)")
    for check, failures in sorted(bench.checks.items()):
        print(f"check {check}: " + ("ok" if not failures else "FAIL " + "; ".join(failures)))
    print(f"fail_frac {result['failed'] / result['attempted']:.4g} "
          f"({result['failed']} of {result['attempted']} run-all calls)")
    for name, values in result["samples"].items():
        if values:
            print(f"samples {name}: " + " ".join(f"{v:.4g}" for v in values))
    if trace:
        label, holds = bench.spec["mix"]
        print(f"layer-mix {label}: {'met' if holds(result['metrics']) else 'NOT MET'}")
    units = dict(E2E)
    for name, value in result["metrics"].items():
        print(f"metric {name} = {value:.6g} {units.get(name) or _unit(name)}")
    return {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units.get(name) or _unit(name)}
            for name, value in result["metrics"].items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "icui", "__init__.py")):
        print(f"error: {root} holds no src/icui; run from the root of an icui checkout",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        result = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0
    results = {
        f"{w}/trace{t}": run_workload(root, w, args.seed, args.seconds, bool(t))
        for w in WORKLOADS for t in (0, 1)
    }
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
