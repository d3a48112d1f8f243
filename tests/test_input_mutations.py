"""Seeded input mutations: bad input ends in exit 1 and a message, never in an internal error.

Each case mutates one copy of a small synthetic table (a cell, a column, a
header name, a row or the label) and runs `run-all` under both strategies
and `impute` on it.  Every run must exit 0 or 1, never report an internal
error, and leave `--out` without new files when it exits 1.
"""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from icui.cli import cli_main
from icui.data import NUMERIC, load_csv
from icui.synth import SynthSpec, write_synth

TOKENS = [
    "", "nan", "inf", "-inf", "NaN", "Infinity", "1e999", "NA", "N/A", "NULL", "null", ".",
    "x", "1e308", "-1e308", "5e-324", "0", "-0", " 1.5 ", "1_0", "2", "-1", "0.5", "é",
]
CONFIG = {
    "k": 3,
    "clusters_k": 2,
    "rf": {"n_trees": 3, "max_depth": 3, "min_samples_leaf": 2},
    "boosted": {"n_rounds": 3, "max_depth": 2},
    "impute": {"algorithm": "select", "min_rows": 5, "boost": {"n_rounds": 3, "max_depth": 2}},
}


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    """Header, rows and numeric column positions of a 36-row synthetic table with 10 % of its cells empty."""
    root = tmp_path_factory.mktemp("mutations")
    csv_path, _ = write_synth(SynthSpec(n_rows=36, n_features=12, n_signal=4, missing_rate=0.1, seed=4), str(root))
    with open(csv_path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    ds = load_csv(csv_path)
    return header, rows, [header.index(name) for name, kind in zip(ds.names, ds.kinds) if kind == NUMERIC]


def _mutate(header, rows, numeric, kind, rng):
    """A copy of the table with one mutation of `kind`, drawn from `rng`, and its description."""
    header, rows = list(header), [list(r) for r in rows]
    label = header.index("icu_death")
    feature = int(rng.choice(numeric if kind == 0 else [j for j in range(len(header)) if j != label]))
    row, token = int(rng.integers(len(rows))), str(rng.choice(TOKENS))
    if kind == 0:
        rows[row][feature] = token
    elif kind == 1:
        rows[row][label] = token
    elif kind == 2:
        for r in rows:
            r[feature] = token
    elif kind == 3:
        header[feature] = str(rng.choice(["", "icu_death", header[(feature + 1) % len(header)]]))
    elif kind == 4:
        rows[row] = rows[row][:-1] if rng.random() < 0.5 else rows[row] + [token]
    elif kind == 5:
        rows = rows[: int(rng.integers(0, 4))]
    elif kind == 6:
        value = str(rng.choice(["0", "1"]))
        for r in rows:
            r[label] = value
    else:
        header.pop(label)
        for r in rows:
            r.pop(label)
    return header, rows, f"mutation {kind}, column {feature}, row {row}, token {token!r}"


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("seed", range(40))
def test_mutated_input_exits_0_or_1_and_writes_nothing_on_1(tmp_path, capsys, table, seed):
    header, rows, what = _mutate(*table, seed % 8, np.random.default_rng(seed))
    data = tmp_path / "data.csv"
    with open(data, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CONFIG))
    for i, argv in enumerate((["run-all", "--strategy", "drop"], ["run-all", "--strategy", "impute"], ["impute"])):
        out = tmp_path / f"out{i}"
        out.mkdir()
        rc = cli_main([*argv, "--config", str(cfg), "--input", str(data), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc in (0, 1), f"{what}: {argv[:3]} exited {rc}: {err}"
        assert "internal error" not in err, f"{what}: {err}"
        if rc == 1:
            assert err.startswith("error: "), what
            assert list(out.iterdir()) == [], f"{what}: {argv[:3]} wrote files before failing"
