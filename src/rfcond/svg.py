"""Minimal native SVG line charts (no plotting dependency).

Deterministic output: coordinates are formatted with fixed precision, so the
same data always yields identical bytes.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

_W, _H = 860, 520
_ML, _MR, _MT, _MB = 70, 20, 40, 50


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if not math.isfinite(lo) or not math.isfinite(hi) or hi <= lo:
        return [lo]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _fmt(v: float) -> str:
    return f"{v:.4g}"


def line_chart(series, title: str = "", x_label: str = "", y_label: str = "") -> str:
    """Render [(label, xs, ys), ...] as an SVG line chart string; xs and ys
    of a series have one length, and points where either is not finite are
    left out."""
    finite = []
    for label, xs, ys in series:
        x, y = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        keep = np.isfinite(x) & np.isfinite(y)
        finite.append((label, x[keep], y[keep]))
    drawn = [(x, y) for _, x, y in finite if x.size]
    if not drawn:
        raise ValueError("no finite data to plot")
    x_lo = min(float(x.min()) for x, _ in drawn)
    x_hi = max(float(x.max()) for x, _ in drawn)
    y_lo = min(float(y.min()) for _, y in drawn)
    y_hi = max(float(y.max()) for _, y in drawn)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    # scalars for the ticks, arrays for the series: the same float operations
    def sx(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def sy(y):
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="24" font-size="16" text-anchor="middle" '
        f'font-family="sans-serif">{title}</text>',
    ]
    axis = f'stroke="#303030" stroke-width="1"'
    out.append(f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" {axis}/>')
    out.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" {axis}/>')
    for t in _ticks(x_lo, x_hi):
        x = sx(t)
        out.append(f'<line x1="{x:.2f}" y1="{_H - _MB}" x2="{x:.2f}" y2="{_H - _MB + 5}" {axis}/>')
        out.append(f'<text x="{x:.2f}" y="{_H - _MB + 20}" font-size="11" '
                   f'text-anchor="middle" font-family="sans-serif">{_fmt(t)}</text>')
    for t in _ticks(y_lo, y_hi):
        y = sy(t)
        out.append(f'<line x1="{_ML - 5}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" {axis}/>')
        out.append(f'<text x="{_ML - 8}" y="{y + 4:.2f}" font-size="11" '
                   f'text-anchor="end" font-family="sans-serif">{_fmt(t)}</text>')
    out.append(f'<text x="{_W // 2}" y="{_H - 12}" font-size="13" text-anchor="middle" '
               f'font-family="sans-serif">{x_label}</text>')
    out.append(f'<text x="18" y="{_H // 2}" font-size="13" text-anchor="middle" '
               f'font-family="sans-serif" transform="rotate(-90 18 {_H // 2})">{y_label}</text>')

    for i, (label, x, y) in enumerate(finite):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(map("{:.2f},{:.2f}".format, sx(x).tolist(), sy(y).tolist()))
        out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                   f'stroke-width="1.8"/>')
        ly = _MT + 16 + 16 * i
        out.append(f'<line x1="{_W - 170}" y1="{ly - 4}" x2="{_W - 145}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="1.8"/>')
        out.append(f'<text x="{_W - 140}" y="{ly}" font-size="12" '
                   f'font-family="sans-serif">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_line_chart(path, series, title: str = "", x_label: str = "",
                     y_label: str = "") -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(line_chart(series, title, x_label, y_label), encoding="utf-8")
