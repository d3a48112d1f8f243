"""Hand-assembled SVG panels: ROC curves, PR curves, cluster heatmaps.

No plotting dependency; every byte is a pure function of the inputs, so the
files diff cleanly across runs.  Each curve panel carries a `class="frame"`
rect delimiting the unit square, one polyline per valid fold, and a reference
line (the chance diagonal for ROC, the prevalence baseline for PR, the latter
tagged with a `data-baseline` attribute holding the exact value).
"""

from __future__ import annotations

import os

import numpy as np

from .cluster import HeatmapTable
from .errors import ValidationError
from .evaluate import CvSummary

PANEL_W, PANEL_H = 480, 360
FRAME = (62.0, 40.0, 400.0, 272.0)  # x, y, width, height of the unit box
PALETTE = ["#4c78a8", "#f58518", "#54a24b", "#e45756", "#72b7b2", "#9d755d", "#b279a2"]
TICKS = (0.0, 0.25, 0.5, 0.75, 1.0)

CELL_W, CELL_H = 14, 12
HEAT_HIGH = (8, 48, 107)  # deep blue endpoint of the white-to-blue ramp


def _text(s: str) -> str:
    """`s` escaped for an SVG text node."""
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _px(v: float) -> str:
    return f"{v:.2f}"


def _x(f: float) -> float:
    return FRAME[0] + f * FRAME[2]


def _y(f: float) -> float:
    return FRAME[1] + FRAME[3] - f * FRAME[3]


def _head(width: int, height: int) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]


def _axes(xlabel: str, ylabel: str, title: str, subtitle: str | None) -> list[str]:
    x0, y0, w, h = FRAME
    parts = [
        f'<rect class="frame" x="{_px(x0)}" y="{_px(y0)}" width="{_px(w)}" height="{_px(h)}" '
        'fill="none" stroke="#333333" stroke-width="1"/>',
        f'<text x="{_px(x0)}" y="20" font-size="13" fill="#111111">{_text(title)}</text>',
    ]
    if subtitle:
        parts.append(
            f'<text x="{_px(x0 + w)}" y="20" font-size="11" fill="#555555" '
            f'text-anchor="end">{_text(subtitle)}</text>'
        )
    for t in TICKS:
        parts.append(
            f'<line x1="{_px(_x(t))}" y1="{_px(y0 + h)}" x2="{_px(_x(t))}" '
            f'y2="{_px(y0 + h + 4)}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{_px(_x(t))}" y="{_px(y0 + h + 16)}" font-size="10" '
            f'text-anchor="middle" fill="#333333">{t:.2f}</text>'
        )
        parts.append(
            f'<line x1="{_px(x0 - 4)}" y1="{_px(_y(t))}" x2="{_px(x0)}" '
            f'y2="{_px(_y(t))}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{_px(x0 - 7)}" y="{_px(_y(t) + 3)}" font-size="10" '
            f'text-anchor="end" fill="#333333">{t:.2f}</text>'
        )
    parts.append(
        f'<text x="{_px(x0 + w / 2)}" y="{PANEL_H - 10}" font-size="11" '
        f'text-anchor="middle" fill="#333333">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{_px(y0 + h / 2)}" font-size="11" text-anchor="middle" '
        f'fill="#333333" transform="rotate(-90 16 {_px(y0 + h / 2)})">{ylabel}</text>'
    )
    return parts


def _fold_polylines(folds) -> list[str]:
    parts = []
    for color_idx, (fold, points) in enumerate(folds):
        pts = " ".join(f"{_px(_x(px))},{_px(_y(py))}" for px, py in points)
        color = PALETTE[color_idx % len(PALETTE)]
        parts.append(
            f'<polyline class="fold" data-fold="{fold}" points="{pts}" fill="none" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
    return parts


def _valid_folds(summary: CvSummary, attr: str):
    folds = [(m.fold, getattr(m, attr)) for m in summary.folds if m.error is None]
    folds = [(f, pts) for f, pts in folds if pts]
    if not folds:
        raise ValidationError("no valid folds to plot")
    return folds


def _curve_svg(summary: CvSummary, points: str, metric: str, labels, reference: str, y0, y1) -> str:
    """A curve panel of each valid fold's `points`, subtitled with `metric`'s summary.

    `labels` are the x label, y label and title; the dashed reference line
    carries the attributes `reference` and runs from (0, y0) to (1, y1).
    """
    folds = _valid_folds(summary, points)
    formatted = getattr(summary, f"{metric}_formatted")
    subtitle = f"{metric.upper()} {formatted}" if formatted else None
    xlabel, ylabel, title = labels
    parts = _head(PANEL_W, PANEL_H)
    parts += _axes(xlabel, ylabel, f"{title}: {summary.model}", subtitle)
    parts.append(
        f'<line {reference} x1="{_px(_x(0))}" y1="{_px(_y(y0))}" x2="{_px(_x(1))}" '
        f'y2="{_px(_y(y1))}" stroke="#999999" stroke-dasharray="5,4"/>'
    )
    parts += _fold_polylines(folds)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def roc_svg(summary: CvSummary) -> str:
    labels = ("False positive rate", "True positive rate", "ROC")
    return _curve_svg(summary, "roc_points", "auroc", labels, 'class="chance"', 0, 1)


def pr_svg(summary: CvSummary) -> str:
    b = summary.baseline
    reference = f'class="baseline" data-baseline="{b!r}"'
    labels = ("Recall", "Precision", "Precision-recall")
    return _curve_svg(summary, "pr_points", "auprc", labels, reference, b, b)


def _fold_spans(labels: list[str]) -> list[tuple[str, int, int]]:
    """Contiguous (prefix, start, end) spans of fold-major column labels."""
    spans = []
    for j, label in enumerate(labels):
        prefix = label.split("_", 1)[0]
        if spans and spans[-1][0] == prefix:
            spans[-1] = (prefix, spans[-1][1], j)
        else:
            spans.append((prefix, j, j))
    return spans


def heatmap_svg(table: HeatmapTable, title: str = "Cluster importance") -> str:
    n_rows, n_cols = table.cells.shape
    if n_rows == 0 or n_cols == 0:
        raise ValidationError("empty heatmap table")
    if not np.isfinite(table.cells).all():
        raise ValidationError("heatmap cells must be finite")
    left = min(160, max(70, 8 + 6 * max(len(n) for n in table.feature_names)))
    top, right, bottom = 44, 10, 10
    width = left + n_cols * CELL_W + right
    height = top + n_rows * CELL_H + bottom
    vmax = float(table.cells.max())
    scale = vmax if vmax > 0 else 1.0
    # each channel runs from white at 0 to HEAT_HIGH at vmax; np.rint rounds
    # half to even, as round() does
    ramp = np.array(HEAT_HIGH) - 255
    rgb = np.rint(255 + (table.cells.astype(np.float64) / scale)[:, :, None] * ramp).astype(np.int64)

    parts = _head(width, height)
    parts.append(f'<text x="{left}" y="18" font-size="13" fill="#111111">{_text(title)}</text>')
    for i, name in enumerate(table.feature_names):
        parts.append(
            f'<text x="{left - 4}" y="{top + i * CELL_H + 9}" font-size="9" '
            f'text-anchor="end" fill="#333333">{_text(name)}</text>'
        )
    for prefix, start, end in _fold_spans(table.column_labels):
        cx = left + (start + end + 1) * CELL_W / 2
        label = prefix.replace("fold", "fold ")
        parts.append(
            f'<text x="{_px(cx)}" y="{top - 8}" font-size="10" text-anchor="middle" '
            f'fill="#333333">{_text(label)}</text>'
        )
        if start > 0:
            sx = left + start * CELL_W
            parts.append(
                f'<line x1="{sx}" y1="{top}" x2="{sx}" y2="{top + n_rows * CELL_H}" '
                'stroke="#999999" stroke-width="1"/>'
            )
    for i in range(n_rows):
        y = top + i * CELL_H
        parts += [
            f'<rect class="cell" x="{left + j * CELL_W}" y="{y}" width="{CELL_W}" height="{CELL_H}" '
            f'fill="rgb({r},{g},{b})" stroke="#dddddd" stroke-width="0.5"/>'
            for j, (r, g, b) in enumerate(rgb[i].tolist())
        ]
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_plots(
    summary: CvSummary,
    heatmap: HeatmapTable | None,
    out_dir: str,
) -> list[str]:
    """Write roc/pr (and heatmap, when given) SVGs for one model."""
    os.makedirs(out_dir, exist_ok=True)
    model = summary.model
    panels = [(f"roc_{model}.svg", roc_svg(summary)), (f"pr_{model}.svg", pr_svg(summary))]
    if heatmap is not None:
        title = f"Cluster importance: {model}"
        panels.append((f"heatmap_{model}.svg", heatmap_svg(heatmap, title=title)))
    written = []
    for name, text in panels:
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        written.append(path)
    return written
