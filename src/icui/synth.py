"""Seeded synthetic tabular generator with planted signal features.

Labels follow a logistic link on the signal block.  The intercept is solved
by bisection so the mean event probability equals the target prevalence,
then labels are drawn by systematic sampling over a shuffled row order: each
row keeps inclusion probability sigmoid(b0 + x.beta) exactly, while the
realized positive count lands within one of n * target.  Independent
Bernoulli draws would miss a +/-0.5% prevalence tolerance at n=2000 far too
often; the systematic draw makes it a guarantee.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .boost import sigmoid
from .data import (
    CATEGORICAL,
    DEFAULT_LABEL_COLUMN,
    NUMERIC,
    Dataset,
    write_csv,
    write_json,
)
from .errors import ValidationError
from .rng import make_rng

CAT_LEVELS = ["a", "b", "c"]


@dataclass(frozen=True)
class SynthSpec:
    n_rows: int = 2000
    n_features: int = 66
    n_signal: int = 10
    prevalence: float = 0.2365
    missing_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_rows < 1:
            raise ValidationError("n_rows must be >= 1")
        if self.n_features < 1:
            raise ValidationError("n_features must be >= 1")
        if not 0 <= self.n_signal <= self.n_features:
            raise ValidationError("need 0 <= n_signal <= n_features")
        if not 0.0 < self.prevalence < 1.0:
            raise ValidationError("prevalence must lie in (0, 1)")
        if not 0.0 <= self.missing_rate < 1.0:
            raise ValidationError("missing_rate must lie in [0, 1)")


def signal_betas(n_signal: int) -> np.ndarray:
    """Planted coefficients: magnitudes 1.5 down to 0.8, alternating sign."""
    if n_signal == 0:
        return np.zeros(0, dtype=np.float64)
    mags = np.linspace(1.5, 0.8, n_signal)
    signs = np.where(np.arange(n_signal) % 2 == 0, 1.0, -1.0)
    return mags * signs


def feature_layout(spec: SynthSpec) -> list[tuple[str, str]]:
    """(name, role) pairs: signal, pair_min/pair_max, noise, categorical.

    After the signal block the remainder is split into up to 4 categorical
    columns, up to 4 correlated min/max pairs (fodder for the group-aware
    imputers), and plain Gaussian noise.
    """
    rest = spec.n_features - spec.n_signal
    n_cat = min(4, rest)
    n_pairs = min(4, (rest - n_cat) // 2)
    n_plain = rest - n_cat - 2 * n_pairs
    layout = [(f"s{i + 1:02d}", "signal") for i in range(spec.n_signal)]
    for j in range(n_pairs):
        layout.append((f"v{j + 1:02d}_min", "pair_min"))
        layout.append((f"v{j + 1:02d}_max", "pair_max"))
    layout += [(f"n{i + 1:02d}", "noise") for i in range(n_plain)]
    layout += [(f"c{i + 1:02d}", "categorical") for i in range(n_cat)]
    return layout


def _solve_intercept(z: np.ndarray, target: float) -> float:
    """Bisect b0 so that mean(sigmoid(b0 + z)) = target."""
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if float(sigmoid(mid + z).mean()) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14:
            break
    return (lo + hi) / 2.0


def _systematic_labels(p: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    perm = rng.permutation(p.size)
    u = float(rng.uniform())
    marks = np.floor(np.cumsum(p[perm]) - u)
    prev = np.concatenate(([math.floor(-u)], marks[:-1]))
    y = np.empty(p.size, dtype=np.int64)
    y[perm] = marks > prev
    return y


def _cohens_d(x: np.ndarray, y: np.ndarray) -> float | None:
    a, b = x[y == 1], x[y == 0]
    if a.size < 2 or b.size < 2:
        return None
    pooled = ((a.size - 1) * a.var(ddof=1) + (b.size - 1) * b.var(ddof=1)) / (a.size + b.size - 2)
    if pooled == 0:
        return None
    return float((a.mean() - b.mean()) / math.sqrt(pooled))


def generate(spec: SynthSpec) -> tuple[Dataset, dict]:
    """Build the dataset and a ground-truth record of the planted effects."""
    n = spec.n_rows
    layout = feature_layout(spec)
    betas = signal_betas(spec.n_signal)
    rng = make_rng(spec.seed, "synth")

    names = [name for name, _ in layout]
    signal_names = names[: spec.n_signal]
    kinds = [CATEGORICAL if role == "categorical" else NUMERIC for _, role in layout]
    x = np.empty((n, len(layout)), dtype=np.float64)
    for j, (_, role) in enumerate(layout):
        if role == "categorical":
            x[:, j] = rng.integers(0, len(CAT_LEVELS), n)
        elif role == "pair_max":  # the pair_min column holds the base; spread it both ways
            half = 0.5 * np.abs(rng.standard_normal(n))
            x[:, j] = x[:, j - 1] + half
            x[:, j - 1] -= half
        else:
            x[:, j] = rng.standard_normal(n)

    z = np.zeros(n, dtype=np.float64)
    for j, beta in enumerate(betas):  # the signal block leads the layout
        z += beta * x[:, j]
    b0 = _solve_intercept(z, spec.prevalence)
    labels = _systematic_labels(sigmoid(b0 + z), rng)

    if spec.missing_rate > 0:
        for j in range(len(layout)):
            x[rng.random(n) < spec.missing_rate, j] = np.nan

    ds = Dataset(
        names=names,
        kinds=kinds,
        x=x,
        labels=labels,
        label_name=DEFAULT_LABEL_COLUMN,
        code_maps={name: list(CAT_LEVELS) for name, kind in zip(names, kinds) if kind == CATEGORICAL},
    )
    ds.check()

    effect_sizes = {}
    for j, (name, role) in enumerate(layout):
        if role != "categorical":
            col = x[:, j]
            obs = ~np.isnan(col)
            effect_sizes[name] = _cohens_d(col[obs], labels[obs])
    truth = {
        "seed": spec.seed,
        "n_rows": n,
        "n_features": spec.n_features,
        "signal_features": signal_names,
        "betas": {name: float(b) for name, b in zip(signal_names, betas)},
        "intercept": b0,
        "target_prevalence": spec.prevalence,
        "realized_prevalence": float(labels.mean()),
        "missing_rate": spec.missing_rate,
        "effect_sizes": effect_sizes,
    }
    return ds, truth


def write_synth(spec: SynthSpec, out_dir: str) -> tuple[str, str]:
    """Write synth.csv and truth.json under out_dir; returns both paths."""
    ds, truth = generate(spec)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "synth.csv")
    truth_path = os.path.join(out_dir, "truth.json")
    write_csv(ds, csv_path)
    write_json(truth_path, truth)
    return csv_path, truth_path
