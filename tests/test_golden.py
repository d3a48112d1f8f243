"""Golden manifest: `run-all` artifacts stay byte-identical on pinned configs.

Each case runs `run-all` on a small synthetic table and compares the sha256
of every artifact except run_meta.json (the one file with a timestamp) with
tests/assets/golden_manifest.json.  A change that alters output bytes on
purpose regenerates the manifest with

    PYTHONPATH=src python tests/test_golden.py

which prints, per case, each artifact it changed, added or removed; the
cause goes into CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

import pytest

from conftest import digest_changes
from icui.cli import cli_main

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "assets", "golden_manifest.json")

# 8 features with 2 signal give one v01_min/v01_max sibling pair, two noise
# columns and 4 categorical columns.  At 20 % missing, seed 6 has rows that
# miss both of the pair, so a3's routing reaches the imputed values; the drop
# case uses 2 % so that most rows are complete.
SYNTH = ["--rows", "120", "--features", "8", "--signal", "2", "--seed", "6", "--missing-rate"]
MODELS = {
    "model": "both", "k": 3, "clusters_k": 3, "seed": 5,
    "rf": {"n_trees": 6, "max_depth": 4, "min_samples_leaf": 2},
    "boosted": {"n_rounds": 6, "max_depth": 2},
}
CASES = {
    "impute-select": ("0.2", {
        **MODELS,
        "strategy": "impute",
        "impute": {
            "algorithm": "select", "min_rows": 10, "seed": 2,
            "boost": {"n_rounds": 2, "max_depth": 2, "eta": 0.5},
        },
    }),
    "drop": ("0.02", {**MODELS, "strategy": "drop"}),
}


def _digests(out_dir: str) -> dict[str, str]:
    found = {}
    for base, _, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(base, name)
            rel = os.path.relpath(path, out_dir).replace(os.sep, "/")
            if rel == "run_meta.json":
                continue
            with open(path, "rb") as fh:
                found[rel] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(found.items()))


def run_case(name: str, work: str) -> dict[str, str]:
    missing_rate, config = CASES[name]
    data_dir = os.path.join(work, f"{name}-data")
    assert cli_main(["synth", *SYNTH, missing_rate, "--out", data_dir]) == 0
    cfg_path = os.path.join(work, f"{name}.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    out = os.path.join(work, name)
    rc = cli_main([
        "run-all", "--config", cfg_path, "--input", os.path.join(data_dir, "synth.csv"), "--out", out,
    ])
    assert rc == 0
    return _digests(out)


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_all_matches_golden_manifest(name, tmp_path):
    with open(MANIFEST, encoding="utf-8") as fh:
        expected = json.load(fh)[name]
    got = run_case(name, str(tmp_path))
    assert sorted(got) == sorted(expected), "artifact set changed"
    changed = [rel for rel in expected if got[rel] != expected[rel]]
    assert not changed, f"artifacts differ from the golden manifest: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        manifest = {name: run_case(name, work) for name in sorted(CASES)}
    with open(MANIFEST, encoding="utf-8") as fh:
        old = json.load(fh)
    for case in sorted(set(old) | set(manifest)):
        for line in digest_changes(old.get(case, {}), manifest.get(case, {})):
            print(f"{case}: {line}")
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {MANIFEST}", file=sys.stderr)
