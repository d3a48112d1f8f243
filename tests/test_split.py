"""The block split scan against the per-feature scanners it replaced.

Every feature's (gain, threshold), or its lack of a split, must come out of
`icui.split.scan` exactly as the old scanner (tests/split_oracle.py)
computed it for that feature alone: compared with ==, not approximately.  A
block of many segments must score each segment as a block of that segment
alone would.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from conftest import build_dataset
from icui import split
from icui.boost import BoostParams, _newton_gains, fit_boosted_matrix, predict_margin
from icui.data import CATEGORICAL, NUMERIC
from icui.forest import ForestParams, _gini_gains, fit_forest, gini, predict_proba_forest
from icui.rng import make_rng
from boost_oracle import scan_categorical, scan_numeric
from split_oracle import best_split, boost_scan_numeric, forest_scan_numeric, node_block


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


def _scan_node(x, rows, features, s1, s2, parent, score, is_cat=None):
    """split.scan of one node; s1 and s2 are aligned with `rows`."""
    is_cat = np.zeros(x.shape[1], dtype=bool) if is_cat is None else is_cat
    features = np.asarray(features)
    num = features[~is_cat[features]]
    full1 = np.zeros(x.shape[0])
    full2 = np.zeros(x.shape[0])
    full1[rows] = s1
    full2[rows] = s2
    gains, thr = split.scan(
        x, node_block(x, rows, num), np.zeros(1, dtype=np.int64), num,
        features[is_cat[features]], full1, full2, np.array([parent]), score,
    )
    return gains[features, 0], thr[features, 0]


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
        score = partial(_gini_gains, msl=msl)
        gains, thr = _scan_node(x, rows, features, w, wy, i_parent, score)
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
        score = partial(_newton_gains, lam=lam, gamma=gamma, mcw=mcw)
        gains, thr = _scan_node(x, rows, features, g, h, s_parent, score)
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
            hit = scan_categorical(x[rows, f], s1, s2, score)
        elif rows.size < 2:
            hit = None
        else:
            gains, thr = scan_numeric(x, rows, np.array([f]), s1, s2, score)
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
        i_parent = gini([n - pos, pos])
        w_all = np.zeros(n_total)
        wy_all = np.zeros(n_total)
        w_all[rows] = w
        wy_all[rows] = wy
        got = best_split(x, rows, features, is_cat, w_all, wy_all, i_parent, partial(_gini_gains, msl=1.0))
        score = partial(_gini_gains, i_parent=i_parent, msl=1.0)
        assert got == _merge_oracle(x, rows, features, is_cat, w, wy, score)


@pytest.mark.parametrize("lam, mcw", [(1.0, 1.0), (0.0, 0.0)])
def test_block_of_many_nodes_scores_each_node_as_alone(lam, mcw):
    """Each segment of a block gets the per-node oracle's (gain, threshold) or code.

    The segments differ in size (one-row ones too), a node's codes may stop
    below the block's 12 bins, running sums cross magnitudes that round, and
    with lambda = 0 and no weight floor, rows with g = h = 0 make 0/0 gains.
    """
    from boost_oracle import _newton_gains as oracle_gains

    rng = np.random.default_rng(int(7 + lam))
    num = np.array([0, 1, 4])
    cat = np.array([2, 3])
    is_cat = np.zeros(5, dtype=bool)
    is_cat[cat] = True
    checked = 0
    for trial in range(40):
        n_total = 160
        x = np.empty((n_total, 5))
        x[:, 0] = np.round(rng.normal(size=n_total), 1)
        x[:, 1] = rng.normal(size=n_total) * 10.0 ** rng.integers(-3, 4, n_total)
        x[:, 2] = rng.integers(0, 12, n_total)
        x[:, 3] = rng.integers(0, 3, n_total)
        x[:, 4] = 0.5
        g = rng.normal(size=n_total) * 10.0 ** rng.integers(-3, 3, n_total)
        h = rng.random(n_total) * 10.0 ** rng.integers(-1, 2, n_total)
        dead = rng.random(n_total) < (0.3 if mcw == 0.0 else 0.0)
        g[dead] = 0.0
        h[dead] = 0.0
        cuts = np.sort(rng.choice(np.arange(1, n_total), size=int(rng.integers(1, 12)), replace=False))
        perm = rng.permutation(n_total)
        nodes = [np.sort(part) for part in np.split(perm, cuts)]
        nodes.append(np.sort(rng.choice(n_total, size=1)))
        for node in nodes[::2]:
            x[node, 2] %= int(rng.integers(4, 8))  # this node's codes stop below 8
        block = np.concatenate([node_block(x, rows, num) for rows in nodes], axis=1)
        starts = np.cumsum([0] + [rows.size for rows in nodes[:-1]])
        with np.errstate(divide="ignore", invalid="ignore"):  # a node of only g = h = 0 rows
            parent = np.array([g[rows].sum() ** 2 / (h[rows].sum() + lam) for rows in nodes])
        score = partial(_newton_gains, lam=lam, gamma=0.0, mcw=mcw)
        gains, thr = split.scan(x, block, starts, num, cat, g, h, parent, score)
        for s, rows in enumerate(nodes):
            old = partial(oracle_gains, lam=lam, gamma=0.0, mcw=mcw, s_parent=parent[s])
            for f in range(5):
                if is_cat[f]:
                    want = scan_categorical(x[rows, f], g[rows], h[rows], old)
                elif rows.size < 2:
                    want = None
                else:
                    got = scan_numeric(x, rows, np.array([f]), g[rows], h[rows], old)
                    want = (float(got[0][0]), float(got[1][0])) if got[0][0] > 0.0 else None
                _assert_same(gains[f, s], thr[f, s], want)
                checked += want is not None
    assert checked > 500


def test_spans_are_greedy_and_give_an_entry_over_the_cap_its_own_span():
    assert split.spans([], 10) == []
    assert split.spans([3], 1) == [(0, 1)]
    assert split.spans([4, 6, 1, 12, 2, 2], 10) == [(0, 2), (2, 3), (3, 4), (4, 6)]
    assert split.spans([5, 5, 5], 100) == [(0, 3)]


# ------------------------------------ thresholds between adjacent or huge values

_LO = np.nextafter(1.0, 2.0)
BOUNDARIES = {
    "adjacent": (_LO, np.nextafter(_LO, 2.0)),  # the midpoint rounds onto hi
    "overflow": (1.7e308, 1.75e308),  # lo + hi overflows to +inf
    "negative-overflow": (-1.75e308, -1.7e308),  # ... and to -inf
}


def _two_values(lo, hi):
    """10 rows at lo labelled 0, then 10 at hi labelled 1: one perfect split."""
    return np.repeat([lo, hi], 10)[:, None], np.repeat([0.0, 1.0], 10)


@pytest.mark.parametrize("lo, hi", BOUNDARIES.values(), ids=BOUNDARIES)
def test_threshold_falls_back_to_lo_when_the_midpoint_leaves_the_boundary(lo, hi):
    with np.errstate(over="ignore"):
        assert not lo <= (lo + hi) / 2.0 < hi  # the table exercises the fallback
    assert split.midpoints(np.array([lo]), np.array([hi])).tolist() == [lo]
    assert split.midpoints(np.array([1.0, -3.0]), np.array([2.0, 5.0])).tolist() == [1.5, 1.0]
    x, y = _two_values(lo, hi)
    w, wy = np.ones(20), y
    want = forest_scan_numeric(x[:, 0], w, wy, 20.0, 10.0, 0.5, 1.0)
    assert want[1] == lo
    gains, thr = split.scan(
        x, node_block(x, np.arange(20), np.array([0])), np.zeros(1, dtype=np.int64), np.array([0]),
        np.zeros(0, dtype=np.int64), w, wy, np.array([0.5]), partial(_gini_gains, msl=1.0),
    )
    assert (gains[0, 0], thr[0, 0]) == want
    g, h = 0.5 - y, np.full(20, 0.25)
    assert boost_scan_numeric(x[:, 0], g, h, 1.0, 0.0, 1.0, 0.0)[1] == lo
    newton = partial(_newton_gains, s_parent=0.0, lam=1.0, gamma=0.0, mcw=1.0)
    assert scan_numeric(x, np.arange(20), np.array([0]), g, h, newton)[1].tolist() == [lo]


@pytest.mark.parametrize("lam", [1.0, 0.0])
@pytest.mark.parametrize("lo, hi", BOUNDARIES.values(), ids=BOUNDARIES)
def test_boosted_root_splits_rows_as_it_scored_them(lo, hi, lam):
    import boost_oracle

    x, y = _two_values(lo, hi)
    params = BoostParams(n_rounds=1, max_depth=1, reg_lambda=lam)
    for fit in (fit_boosted_matrix, boost_oracle.fit_boosted_matrix):
        root = fit(x, y, [NUMERIC], ["v"], params).trees[0]
        assert root.threshold[0] == lo
        assert root.n_samples.tolist() == [20.0, 10.0, 10.0]
        # g = +-0.5 and h = 0.25 per row at the starting margin 0
        assert root.gain[0] == boost_oracle.split_gain(5.0, 2.5, -5.0, 2.5, lam)
    margin = predict_margin(fit_boosted_matrix(x, y, [NUMERIC], ["v"], params), x)
    assert (margin[:10] < 0.0).all() and (margin[10:] > 0.0).all()


@pytest.mark.parametrize("lo, hi", BOUNDARIES.values(), ids=BOUNDARIES)
def test_forest_keeps_the_perfect_split_and_its_scanned_gain(lo, hi):
    from forest_oracle import _fit_tree_matrix

    x, y = _two_values(lo, hi)
    ds = build_dataset(numeric={"v": x[:, 0]}, labels=y.astype(int))
    params = ForestParams(n_trees=1, bootstrap=False, min_samples_leaf=1)
    model = fit_forest(ds, params)
    want = _fit_tree_matrix(x, y, [NUMERIC], params, make_rng(0, "tree", 0), np.ones(20))
    for tree in (model.trees[0], want):
        assert tree.threshold.tolist() == [lo, 0.0, 0.0]
        assert tree.n_samples.tolist() == [20.0, 10.0, 10.0]
        assert tree.gain.tolist() == [0.5, 0.0, 0.0]  # Gini 0.5 to two pure children
    assert predict_proba_forest(model, x).tolist() == [0.0] * 10 + [1.0] * 10
