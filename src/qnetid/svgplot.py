"""Minimal deterministic SVG renderer for sweep results.

Hand-rolled text SVG (no plotting dependency) so that a fixed seed
yields byte-identical files: one polyline per (tau, n~) series, solid
point markers, axis ticks, and a legend.  Solvability plots use a
linear [0, 1] axis; error plots a log axis on the median relative
error.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

from .sweep import read_sweep_csv

WIDTH, HEIGHT = 880, 520
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 240, 40, 60

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f",
    "#aec7e8", "#ff9896",
)

AXIS_LABELS = {
    "solvability": "mean solvability rate",
    "error": "median relative reconstruction error",
}


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def emit_plot(csv_path, kind: str, out_path) -> Path:
    """Render a sweep CSV to an SVG file; returns the output path.

    Raises ValueError (before creating the file) on malformed CSVs, an
    unknown kind, or when no plottable rows remain.
    """
    if kind not in AXIS_LABELS:
        raise ValueError(f"unknown plot kind {kind!r}; expected one of {sorted(AXIS_LABELS)}")
    rows = read_sweep_csv(csv_path)
    ykey = "solvability_mean" if kind == "solvability" else "eps_median"
    rows = [r for r in rows if r[ykey] is not None]
    if kind == "error":
        rows = [r for r in rows if r[ykey] > 0.0]
    if not rows:
        raise ValueError(f"{csv_path} has no plottable rows for kind {kind!r}")

    series: dict[tuple[float, int], list[tuple[int, float]]] = {}
    for r in rows:
        series.setdefault((r["tau"], r["n_tilde"]), []).append((r["d"], r[ykey]))

    xs = sorted({d for pts in series.values() for d, _ in pts})
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1, x_hi + 1

    if kind == "solvability":
        y_lo, y_hi = 0.0, 1.0
        yticks = [0.0, 0.25, 0.5, 0.75, 1.0]
        ytick_text = [f"{v:.2f}" for v in yticks]

        def yval(v: float) -> float:
            return v
    else:
        vals = [v for pts in series.values() for _, v in pts]
        lo = math.floor(math.log10(min(vals)))
        hi = math.ceil(math.log10(max(vals)))
        if hi == lo:
            hi = lo + 1
        y_lo, y_hi = float(lo), float(hi)
        yticks = [float(e) for e in range(lo, hi + 1)]
        ytick_text = [f"1e{e:d}" for e in range(lo, hi + 1)]

        def yval(v: float) -> float:
            return math.log10(v)

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(d: float) -> float:
        return MARGIN_L + plot_w * (d - x_lo) / (x_hi - x_lo)

    def py(v: float) -> float:
        return MARGIN_T + plot_h * (1.0 - (yval(v) - y_lo) / (y_hi - y_lo))

    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    with open(csv_path) as fh:  # the sweep CSV's JSON preamble, if it has one
        first = fh.readline().strip()
    config = first[1:].strip() if first.startswith("#") else ""
    if config:
        # a comment holds no "--": every hyphen before another is set apart
        out.append(f"<!-- {re.sub('-(?=-)', '- ', config)} -->")
    out.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')

    # axes
    x0, y0 = MARGIN_L, MARGIN_T + plot_h
    out.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" stroke="black"/>'
    )
    out.append(f'<line x1="{x0}" y1="{MARGIN_T}" x2="{x0}" y2="{y0}" stroke="black"/>')

    step = max(1, (x_hi - x_lo) // 10)
    for d in range(int(x_lo), int(x_hi) + 1, step):
        x = px(d)
        out.append(f'<line x1="{_fmt(x)}" y1="{y0}" x2="{_fmt(x)}" y2="{y0 + 5}" stroke="black"/>')
        out.append(
            f'<text x="{_fmt(x)}" y="{y0 + 20}" font-size="12" text-anchor="middle">{d}</text>'
        )
    for v, label in zip(yticks, ytick_text):
        yy = MARGIN_T + plot_h * (1.0 - (v - y_lo) / (y_hi - y_lo))
        out.append(f'<line x1="{x0 - 5}" y1="{_fmt(yy)}" x2="{x0}" y2="{_fmt(yy)}" stroke="black"/>')
        out.append(
            f'<text x="{x0 - 9}" y="{_fmt(yy + 4)}" font-size="12" text-anchor="end">{label}</text>'
        )
    out.append(
        f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 18}" font-size="14" '
        f'text-anchor="middle">number of network nodes d</text>'
    )
    out.append(
        f'<text x="18" y="{MARGIN_T + plot_h / 2:.1f}" font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 18 {MARGIN_T + plot_h / 2:.1f})">{AXIS_LABELS[kind]}</text>'
    )

    # series
    legend_y = MARGIN_T + 10
    for idx, key in enumerate(sorted(series)):
        tau, n_tilde = key
        color = PALETTE[idx % len(PALETTE)]
        pts = sorted(series[key])
        coords = " ".join(f"{_fmt(px(d))},{_fmt(py(v))}" for d, v in pts)
        if len(pts) > 1:
            out.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        for d, v in pts:
            out.append(
                f'<circle cx="{_fmt(px(d))}" cy="{_fmt(py(v))}" r="3" fill="{color}"/>'
            )
        lx = WIDTH - MARGIN_R + 16
        out.append(
            f'<line x1="{lx}" y1="{legend_y}" x2="{lx + 24}" y2="{legend_y}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{lx + 30}" y="{legend_y + 4}" font-size="12">'
            f"tau={tau:g}, n~={n_tilde}</text>"
        )
        legend_y += 18
    out.append("</svg>")

    out_path = Path(out_path)
    out_path.write_text("\n".join(out) + "\n")
    return out_path
