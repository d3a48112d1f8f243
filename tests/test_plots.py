import xml.etree.ElementTree as ET

import numpy as np
import pytest

from icui.cluster import HeatmapTable
from icui.errors import ValidationError
from icui.evaluate import CvSummary, FoldMetrics, ModelSpec, run_cv
from icui.plots import HEAT_HIGH, emit_plots, heatmap_svg, pr_svg, roc_svg
from icui.forest import ForestParams
from icui.synth import SynthSpec, generate


def _elements(svg: str, tag: str, cls: str | None = None):
    root = ET.fromstring(svg)
    hits = [el for el in root.iter() if el.tag.split("}")[-1] == tag]
    if cls is not None:
        hits = [el for el in hits if el.get("class") == cls]
    return hits


def _frame(svg: str):
    f = _elements(svg, "rect", "frame")[0]
    return tuple(float(f.get(a)) for a in ("x", "y", "width", "height"))


def _invert(frame, px, py):
    x0, y0, w, h = frame
    return (px - x0) / w, (y0 + h - py) / h


def _summary(**over):
    fold0 = FoldMetrics(
        fold=0, n_test=4, n_pos=2, auroc=1.0, auprc=1.0,
        roc_points=[(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)],
        pr_points=[(0.0, 1.0), (1.0, 1.0)],
    )
    fold1 = FoldMetrics(
        fold=1, n_test=4, n_pos=2, auroc=0.5, auprc=0.5,
        roc_points=[(0.0, 0.0), (1.0, 1.0)],
        pr_points=[(0.0, 1.0), (0.5, 0.5), (1.0, 0.5)],
    )
    base = dict(
        model="rf", k=2, seed=0, baseline=0.25, folds=[fold0, fold1], n_valid_folds=2,
        auroc_mean=0.75, auroc_std=0.354, auroc_formatted="0.750 ± 0.354",
        auprc_mean=0.75, auprc_std=0.354, auprc_formatted="0.750 ± 0.354",
    )
    base.update(over)
    return CvSummary(**base)


def test_roc_panel_one_polyline_per_fold_plus_chance():
    svg = roc_svg(_summary())
    assert len(_elements(svg, "polyline")) == 2
    assert len(_elements(svg, "line", "chance")) == 1


def test_roc_points_map_into_frame_coordinates():
    summary = _summary()
    svg = roc_svg(summary)
    frame = _frame(svg)
    for poly in _elements(svg, "polyline"):
        fold = int(poly.get("data-fold"))
        pts = [tuple(map(float, p.split(","))) for p in poly.get("points").split()]
        got = [_invert(frame, px, py) for px, py in pts]
        expect = summary.folds[fold].roc_points
        assert len(got) == len(expect)
        for (gx, gy), (ex, ey) in zip(got, expect):
            assert gx == pytest.approx(ex, abs=2e-3)
            assert gy == pytest.approx(ey, abs=2e-3)


def test_roc_chance_line_is_the_unit_diagonal():
    svg = roc_svg(_summary())
    frame = _frame(svg)
    line = _elements(svg, "line", "chance")[0]
    p1 = _invert(frame, float(line.get("x1")), float(line.get("y1")))
    p2 = _invert(frame, float(line.get("x2")), float(line.get("y2")))
    assert p1 == pytest.approx((0.0, 0.0), abs=2e-3)
    assert p2 == pytest.approx((1.0, 1.0), abs=2e-3)


def test_roc_skips_errored_folds():
    s = _summary()
    s.folds[1].error = "model fit failed"
    assert len(_elements(roc_svg(s), "polyline")) == 1


def test_roc_requires_a_valid_fold():
    s = _summary()
    for m in s.folds:
        m.error = "boom"
    with pytest.raises(ValidationError, match="no valid folds"):
        roc_svg(s)


def test_pr_baseline_attribute_and_height():
    summary = _summary(baseline=0.2365)
    svg = pr_svg(summary)
    line = _elements(svg, "line", "baseline")[0]
    assert line.get("data-baseline") == repr(0.2365)
    frame = _frame(svg)
    _, fy1 = _invert(frame, float(line.get("x1")), float(line.get("y1")))
    _, fy2 = _invert(frame, float(line.get("x2")), float(line.get("y2")))
    assert fy1 == pytest.approx(0.2365, abs=2e-3)
    assert fy1 == fy2


def test_pr_polylines_and_titles():
    svg = pr_svg(_summary())
    assert len(_elements(svg, "polyline")) == 2
    texts = [t.text for t in _elements(svg, "text")]
    assert "Precision-recall: rf" in texts
    assert "AUPRC 0.750 ± 0.354" in texts


def test_svg_output_is_deterministic():
    assert roc_svg(_summary()) == roc_svg(_summary())
    assert pr_svg(_summary()) == pr_svg(_summary())


def _table():
    return HeatmapTable(
        feature_names=["age", "hr_min", "spo2"],
        column_labels=["fold1_rank1", "fold1_rank2", "fold2_rank1", "fold2_rank2"],
        cells=np.array([
            [0.7, 0.0, 0.8, 0.0],
            [0.0, 0.2, 0.0, 0.1],
            [0.3, 0.0, 0.0, 0.25],
        ]),
    )


def test_heatmap_cell_count_and_validity():
    table = _table()
    svg = heatmap_svg(table)
    cells = _elements(svg, "rect", "cell")
    assert len(cells) == table.cells.size


def test_heatmap_color_ramp_endpoints():
    svg = heatmap_svg(_table())
    cells = _elements(svg, "rect", "cell")
    fills = [c.get("fill") for c in cells]
    assert fills.count("rgb(255,255,255)") == 6  # zero cells stay white
    assert "rgb(8,48,107)" in fills  # the max cell hits the ramp end


def test_heatmap_channels_round_half_to_even_like_round():
    """Each channel is round(255 + t * (high - 255)) with t = cell / max."""
    t = [1.0, 0.0, 0.125, 0.5, 0.625, 0.3]
    table = HeatmapTable(feature_names=["a"], column_labels=[f"fold1_rank{j + 1}" for j in range(6)],
                         cells=np.array([t]))
    fills = [c.get("fill") for c in _elements(heatmap_svg(table), "rect", "cell")]
    want = ["rgb({},{},{})".format(*(round(255 + v * (h - 255)) for h in HEAT_HIGH)) for v in t]
    assert fills == want
    assert fills[:2] == ["rgb(8,48,107)", "rgb(255,255,255)"]  # t = 1, t = 0
    assert 255 + 0.125 * (HEAT_HIGH[2] - 255) == 236.5 and fills[2].endswith(",236)")  # half to even
    assert 255 + 0.5 * (HEAT_HIGH[0] - 255) == 131.5 and fills[3].startswith("rgb(132,")


def test_heatmap_rejects_non_finite_cells():
    table = _table()
    table.cells[0, 1] = np.nan
    with pytest.raises(ValidationError, match="finite"):
        heatmap_svg(table)


def test_heatmap_rows_follow_feature_order():
    table = _table()
    svg = heatmap_svg(table)
    cells = _elements(svg, "rect", "cell")
    ys = sorted({float(c.get("y")) for c in cells})
    assert len(ys) == 3
    texts = {t.text: float(t.get("y")) for t in _elements(svg, "text") if t.text in table.feature_names}
    assert texts["age"] < texts["hr_min"] < texts["spo2"]


def test_heatmap_fold_group_labels_and_separator():
    svg = heatmap_svg(_table())
    texts = [t.text for t in _elements(svg, "text")]
    assert "fold 1" in texts and "fold 2" in texts
    # one separator between the two fold blocks
    seps = [l for l in _elements(svg, "line") if l.get("stroke") == "#999999"]
    assert len(seps) == 1


def test_markup_in_names_and_titles_is_escaped():
    # '&', '<' and '>' in a feature or model name must not break the XML
    table = _table()
    table.feature_names = ["ph<7.2", "a&b", "x>y"]
    svg = heatmap_svg(table, title="Cluster importance: m<&>")
    assert "&lt;7.2" in svg and "a&amp;b" in svg and "x&gt;y" in svg
    texts = {t.text for t in _elements(svg, "text")}
    assert {"ph<7.2", "a&b", "x>y", "Cluster importance: m<&>"} <= texts
    for panel in (roc_svg, pr_svg):
        texts = {t.text for t in _elements(panel(_summary(model="m<&>")), "text")}
        assert any(t.endswith(": m<&>") for t in texts)


def test_heatmap_rejects_empty():
    with pytest.raises(ValidationError):
        heatmap_svg(HeatmapTable(feature_names=[], column_labels=[], cells=np.zeros((0, 0))))


def test_emit_plots_writes_files(tmp_path):
    written = emit_plots(_summary(), _table(), str(tmp_path))
    names = sorted(p.rsplit("/", 1)[-1] for p in written)
    assert names == ["heatmap_rf.svg", "pr_rf.svg", "roc_rf.svg"]
    for p in written:
        ET.fromstring(open(p).read())  # well-formed XML
    again = emit_plots(_summary(), _table(), str(tmp_path))
    for p in written:
        assert open(p, "rb").read() == open(p, "rb").read()
    assert written == again


def test_emit_plots_without_heatmap(tmp_path):
    written = emit_plots(_summary(), None, str(tmp_path))
    assert len(written) == 2


def test_five_fold_run_produces_five_polylines():
    ds, _ = generate(SynthSpec(n_rows=150, n_features=8, n_signal=3, seed=1))
    result = run_cv(
        ds,
        [ModelSpec("rf", ForestParams(n_trees=10, max_depth=5, min_samples_leaf=5))],
        k=5, seed=0, clusters_k=3,
    )["rf"]
    svg = roc_svg(result.summary)
    assert len(_elements(svg, "polyline")) == 5
    assert len(_elements(pr_svg(result.summary), "polyline")) == 5
