"""The benchmark's tracer still finds every function it wraps.

perfbench/child.py wraps icui's layer functions by name, where their callers
look them up.  A deleted or renamed name would first fail the benchmark's
traced warm-up; here it fails tier-1 instead.  Each workload of
perfbench/run.py is also run once, in process and traced, and its counter
expectations are checked, so a function that is still present but no longer
called fails too.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import sys

import pytest

from icui.cli import cli_main
from icui.synth import SynthSpec, write_synth

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
TRACED_MODULES = ("icui.cli", "icui.evaluate", "icui.impute")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


child = _load("child")
bench = _load("run")


@contextlib.contextmanager
def _traced():
    """A Tracer installed on icui's modules; every wrapped attribute is restored on exit."""
    modules = [sys.modules[name] for name in TRACED_MODULES]
    saved = [dict(vars(m)) for m in modules]
    tracer = child.Tracer()
    try:
        child.install_tracer(tracer)
        yield tracer, modules, saved
    finally:
        for module, attrs in zip(modules, saved):
            for attr, value in attrs.items():
                if getattr(module, attr) is not value:
                    setattr(module, attr, value)


def test_install_tracer_wraps_names_that_exist_and_restores_them():
    with _traced() as (_, modules, saved):
        wrapped = {
            (module.__name__, attr)
            for module, attrs in zip(modules, saved)
            for attr, value in attrs.items()
            if getattr(module, attr) is not value
        }
    assert ("icui.evaluate", "fit_forest") in wrapped
    assert ("icui.impute", "fit_boosted_matrix") in wrapped
    for module, attrs in zip(modules, saved):
        assert all(getattr(module, attr) is value for attr, value in attrs.items())


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_traced_workload_meets_its_counter_expectations(tmp_path, workload):
    spec = bench.WORKLOADS[workload]
    data = tmp_path / "data"
    write_synth(SynthSpec(**dict(spec["synth"], seed=1)), str(data))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(spec["config"]))
    argv = [
        "run-all", "--config", str(cfg), "--input", str(data / "synth.csv"),
        "--out", str(tmp_path / "out"), "--seed", "1",
    ]
    with _traced() as (tracer, _, _), contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(argv) == 0
    counters = {k[len("count."):]: v for k, v in tracer.summary().items() if k.startswith("count.")}
    for label, predicate in spec["expect"].items():
        assert predicate(counters), f"{workload}: expected {label}, got {counters}"
