"""Minimal SVG line charts on log-log axes: polylines, decade ticks, and labels.

Plots are a convenience companion to CSV outputs, emitted without any
plotting dependency.  Output is deterministic for fixed input.
"""

from __future__ import annotations

import math
from pathlib import Path

_WIDTH, _HEIGHT = 720, 480
_MARGIN = 60
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _transform(value: float, lo: float, hi: float) -> float:
    value, lo, hi = math.log10(value), math.log10(lo), math.log10(hi)
    if hi == lo:
        return 0.5
    return (value - lo) / (hi - lo)


def _ticks(lo: float, hi: float) -> list[float]:
    first = math.ceil(math.log10(lo) - 1e-9)
    last = math.floor(math.log10(hi) + 1e-9)
    return [10.0**e for e in range(first, last + 1)]


def line_chart(
    series: dict[str, list[tuple[float, float]]],
    path,
    title: str,
    x_label: str,
    y_label: str,
) -> None:
    """Write a labelled multi-series line chart on log-log axes to ``path``;
    points with a nonpositive coordinate are left out."""
    points = [p for pts in series.values() for p in pts]
    xs = [p[0] for p in points if p[0] > 0]
    ys = [p[1] for p in points if p[1] > 0]
    if not xs or not ys:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)

    def px(x: float) -> float:
        return _MARGIN + _transform(x, x_lo, x_hi) * (_WIDTH - 2 * _MARGIN)

    def py(y: float) -> float:
        return _HEIGHT - _MARGIN - _transform(y, y_lo, y_hi) * (_HEIGHT - 2 * _MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<line x1="{_MARGIN}" y1="{_HEIGHT - _MARGIN}" x2="{_WIDTH - _MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-size="16">{title}</text>',
    ]
    for tick in _ticks(x_lo, x_hi):
        x = px(tick)
        parts.append(
            f'<line x1="{x:.1f}" y1="{_HEIGHT - _MARGIN}" x2="{x:.1f}" '
            f'y2="{_HEIGHT - _MARGIN + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{_HEIGHT - _MARGIN + 18}" text-anchor="middle" '
            f'font-size="10">{tick:g}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        y = py(tick)
        parts.append(
            f'<line x1="{_MARGIN - 5}" y1="{y:.1f}" x2="{_MARGIN}" '
            f'y2="{y:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_MARGIN - 8}" y="{y + 3:.1f}" text-anchor="end" '
            f'font-size="10">{tick:g}</text>'
        )
    parts += [
        f'<text x="{_WIDTH / 2:.1f}" y="{_HEIGHT - 14}" text-anchor="middle" '
        f'font-size="12">{x_label}</text>',
        f'<text x="16" y="{_HEIGHT / 2:.1f}" text-anchor="middle" '
        f'font-size="12" transform="rotate(-90 16 {_HEIGHT / 2:.1f})">'
        f"{y_label}</text>",
    ]
    for idx, (label, pts) in enumerate(series.items()):
        keep = [(x, y) for x, y in pts if x > 0 and y > 0]
        if not keep:
            continue
        color = _COLORS[idx % len(_COLORS)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in keep)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_WIDTH - _MARGIN + 6}" y="{_MARGIN + 16 * idx + 10}" '
            f'font-size="11" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
