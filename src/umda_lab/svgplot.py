"""Minimal dependency-free SVG line charts for batch experiment figures."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_WIDTH, _HEIGHT = 860, 480
_MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM = 70, 20, 40, 50


@dataclass(frozen=True)
class Series:
    label: str
    x: Sequence[float]
    y: Sequence[float]
    kind: str = "line"  # "line" or "points"


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / count
    return [lo + i * step for i in range(count + 1)]


def line_chart(
    path: Path,
    series: Sequence[Series],
    title: str,
    x_label: str,
    y_label: str,
    ref_lines: Sequence[tuple[str, float]] = (),
) -> None:
    xs = [v for s in series for v in s.x]
    ys = [v for s in series for v in s.y] + [v for _, v in ref_lines]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(0.0, min(ys)), max(ys) * 1.05
    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(v: float) -> float:
        span = x_hi - x_lo if x_hi > x_lo else 1.0
        return _MARGIN_LEFT + (v - x_lo) / span * plot_w

    def sy(v: float) -> float:
        span = y_hi - y_lo if y_hi > y_lo else 1.0
        return _MARGIN_TOP + plot_h - (v - y_lo) / span * plot_h

    # series share x values and LeadingOnes depths repeat: format each distinct value once
    x_text = {v: f"{sx(v):.2f}" for v in set(xs)}
    y_text = {v: f"{sy(v):.2f}" for v in set(ys)}
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" font-size="15">{title}</text>',
    ]
    axis_y = _MARGIN_TOP + plot_h
    parts.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{axis_y}" x2="{_MARGIN_LEFT + plot_w}" y2="{axis_y}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP}" x2="{_MARGIN_LEFT}" y2="{axis_y}" stroke="black"/>'
    )
    for tick in _ticks(x_lo, x_hi):
        px = sx(tick)
        parts.append(f'<line x1="{px:.2f}" y1="{axis_y}" x2="{px:.2f}" y2="{axis_y + 5}" stroke="black"/>')
        parts.append(f'<text x="{px:.2f}" y="{axis_y + 18}" text-anchor="middle">{tick:g}</text>')
    for tick in _ticks(y_lo, y_hi):
        py = sy(tick)
        parts.append(f'<line x1="{_MARGIN_LEFT - 5}" y1="{py:.2f}" x2="{_MARGIN_LEFT}" y2="{py:.2f}" stroke="black"/>')
        parts.append(f'<text x="{_MARGIN_LEFT - 8}" y="{py + 4:.2f}" text-anchor="end">{tick:g}</text>')
    parts.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.1f}" y="{_HEIGHT - 10}" text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="18" y="{_MARGIN_TOP + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {_MARGIN_TOP + plot_h / 2:.1f})">{y_label}</text>'
    )
    for label, value in ref_lines:
        py = sy(value)
        parts.append(
            f'<line x1="{_MARGIN_LEFT}" y1="{py:.2f}" x2="{_MARGIN_LEFT + plot_w}" y2="{py:.2f}" '
            f'stroke="#555555" stroke-dasharray="6,4"/>'
        )
        parts.append(f'<text x="{_MARGIN_LEFT + plot_w - 4}" y="{py - 4:.2f}" text-anchor="end" fill="#555555">{label}</text>')
    for idx, s in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        if s.kind == "points":
            for xv, yv in zip(s.x, s.y):
                parts.append(f'<circle cx="{x_text[xv]}" cy="{y_text[yv]}" r="3.5" fill="{color}"/>')
        else:
            points = " ".join(f"{x_text[xv]},{y_text[yv]}" for xv, yv in zip(s.x, s.y))
            parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        legend_y = _MARGIN_TOP + 16 * idx
        parts.append(f'<rect x="{_MARGIN_LEFT + 10}" y="{legend_y - 9}" width="10" height="10" fill="{color}"/>')
        parts.append(f'<text x="{_MARGIN_LEFT + 25}" y="{legend_y}">{s.label}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")
