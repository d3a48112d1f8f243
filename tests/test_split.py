"""The 2-D split scan against the per-feature scanners it replaced.

Every feature's (gain, threshold), or its lack of a split, must come out of
`icui.split.scan_numeric` exactly as the old scanner (tests/split_oracle.py)
computed it for that feature alone: compared with ==, not approximately.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from icui import split
from icui.boost import _newton_gains
from icui.data import CATEGORICAL, NUMERIC
from icui.forest import _gini_gains, gini
from split_oracle import boost_scan_numeric, forest_scan_numeric


def _node(rng, n_total, n_rows, k):
    """A node: ascending row subset of an n_total x k matrix with tied columns.

    Column 0 holds one distinct value; the others are rounded to few digits
    (many ties) or left continuous.
    """
    x = rng.normal(size=(n_total, k)) * 3.0
    for j in range(1, k):
        digits = int(rng.integers(-1, 3))
        if digits < 2:
            x[:, j] = np.round(x[:, j], digits)
    x[:, 0] = 1.25
    rows = np.sort(rng.choice(n_total, size=n_rows, replace=False))
    return x, rows


def _assert_same(got_gain, got_thr, want):
    if want is None:
        assert not got_gain > 0.0
    else:
        assert got_gain > 0.0
        assert (got_gain, got_thr) == want


@pytest.mark.parametrize("msl", [1.0, 5.0])
def test_forest_scan_equals_per_feature_oracle(msl):
    rng = np.random.default_rng(31 + int(msl))
    splits = 0
    for trial in range(150):
        n_total = int(rng.integers(2, 80))
        x, rows = _node(rng, n_total, int(rng.integers(2, n_total + 1)), 6)
        w = rng.integers(1, 4, size=rows.size).astype(np.float64)  # bootstrap counts
        y = rng.integers(0, 2, size=rows.size).astype(np.float64)
        wy = w * y
        n = float(w.sum())
        pos = float(wy.sum())
        if pos in (0.0, n):
            continue
        i_parent = gini([n - pos, pos])
        features = np.arange(x.shape[1])
        score = partial(_gini_gains, i_parent=i_parent, msl=msl)
        gains, thr = split.scan_numeric(x, rows, features, w, wy, score)
        for j, f in enumerate(features):
            want = forest_scan_numeric(x[rows, f], w, wy, n, pos, i_parent, msl)
            _assert_same(gains[j], thr[j], want)
            splits += want is not None
        assert not gains[0] > 0.0  # the constant column never splits
    assert splits > 100


@pytest.mark.parametrize("mcw", [0.0, 1.0])
@pytest.mark.parametrize("lam", [0.0, 1.0])
@pytest.mark.parametrize("gamma", [0.0, 0.3])
def test_boost_scan_equals_per_feature_oracle(mcw, lam, gamma):
    rng = np.random.default_rng(int(100 * mcw + 10 * lam + 40 * gamma))
    splits = 0
    for trial in range(120):
        n_total = int(rng.integers(2, 80))
        x, rows = _node(rng, n_total, int(rng.integers(2, n_total + 1)), 6)
        p = 1.0 / (1.0 + np.exp(-rng.normal(size=rows.size) * 2.0))
        y = rng.integers(0, 2, size=rows.size)
        g = p - y
        h = p * (1.0 - p)
        gs = float(g.sum())
        hs = float(h.sum())
        s_parent = gs * gs / (hs + lam)
        features = np.arange(x.shape[1])
        score = partial(_newton_gains, lam=lam, gamma=gamma, mcw=mcw, s_parent=s_parent)
        gains, thr = split.scan_numeric(x, rows, features, g, h, score)
        for j, f in enumerate(features):
            want = boost_scan_numeric(x[rows, f], g, h, lam, gamma, mcw, s_parent)
            _assert_same(gains[j], thr[j], want)
            splits += want is not None
        assert not gains[0] > 0.0
    assert splits > 50


def _merge_oracle(x, rows, features, is_cat, s1, s2, score):
    """The models' former walk: ascending features, keep strictly greater gains."""
    best = None
    for f in features:
        if is_cat[f]:
            hit = split.scan_categorical(x[rows, f], s1, s2, score)
        elif rows.size < 2:
            hit = None
        else:
            gains, thr = split.scan_numeric(x, rows, np.array([f]), s1, s2, score)
            hit = (float(gains[0]), float(thr[0])) if gains[0] > 0.0 else None
        if hit is not None and (best is None or hit[0] > best[0]):
            best = (hit[0], int(f), hit[1], bool(is_cat[f]))
    return best


def test_best_split_keeps_the_first_strictly_greatest_feature():
    rng = np.random.default_rng(12)
    kinds = [NUMERIC, CATEGORICAL, NUMERIC, NUMERIC, CATEGORICAL, NUMERIC]
    is_cat = split.categorical_mask(kinds)
    for trial in range(200):
        n_total = int(rng.integers(1, 40))
        x, rows = _node(rng, n_total, int(rng.integers(1, n_total + 1)), len(kinds))
        x[:, 1] = rng.integers(0, 3, n_total)
        x[:, 4] = rng.integers(0, 2, n_total)
        x[:, 5] = x[:, 2]  # a duplicate column ties on every split
        features = np.sort(rng.choice(len(kinds), size=int(rng.integers(1, 7)), replace=False))
        w = rng.integers(1, 4, size=rows.size).astype(np.float64)
        wy = w * rng.integers(0, 2, size=rows.size)
        n, pos = float(w.sum()), float(wy.sum())
        if pos in (0.0, n):
            continue
        score = partial(_gini_gains, i_parent=gini([n - pos, pos]), msl=1.0)
        got = split.best_split(x, rows, features, is_cat, w, wy, score)
        assert got == _merge_oracle(x, rows, features, is_cat, w, wy, score)
