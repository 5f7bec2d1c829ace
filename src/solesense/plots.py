"""Dependency-light SVG line charts and the pressure color ramp.

SVG is generated as plain text so golden tests can assert structure (series
count, labels) without pixel comparisons. Each chart written to disk gets a
CSV twin carrying the exact plotted data.
"""

from __future__ import annotations

import math
import os
from typing import Sequence

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH = 800
_HEIGHT = 480
_MARGIN_LEFT = 64.0
_MARGIN_RIGHT = 16.0
_MARGIN_TOP = 28.0
_MARGIN_BOTTOM = 40.0


def pressure_color(fraction: float) -> tuple[int, int, int]:
    """Display ramp: green at light pressure, red at high, blue at the top end."""
    f = min(max(fraction, 0.0), 1.0)
    if f <= 0.5:
        t = f / 0.5
        return (round(255 * t), round(255 * (1 - t)), 0)
    t = (f - 0.5) / 0.5
    return (round(255 * (1 - t)), 0, round(255 * t))


def _finite(values) -> list[float]:
    return [v for v in values if v is not None and math.isfinite(v)]


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 10000 or abs(value) < 0.01:
        return f"{value:.3g}"
    return f"{value:g}"


def line_chart_svg(
    xs: Sequence[float],
    series: Sequence[tuple[str, Sequence[float | None]]],
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render named (name, ys) series, one y per x of ``xs``, as an 800 x 480
    SVG document string.

    A ``None`` y value breaks the polyline (used for open-circuit gaps).
    """
    xs_all = _finite(xs)
    ys_all = [y for _name, ys in series for y in _finite(ys)]
    x_lo, x_hi = (min(xs_all), max(xs_all)) if xs_all else (0.0, 1.0)
    y_lo, y_hi = (min(ys_all), max(ys_all)) if ys_all else (0.0, 1.0)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(x: float) -> float:
        return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_TOP + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="18" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif">{title}</text>',
    ]
    # axes
    parts.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP + plot_h:.1f}" '
        f'x2="{_MARGIN_LEFT + plot_w:.1f}" y2="{_MARGIN_TOP + plot_h:.1f}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP}" '
        f'x2="{_MARGIN_LEFT}" y2="{_MARGIN_TOP + plot_h:.1f}" stroke="black"/>'
    )
    for tick in _ticks(x_lo, x_hi):
        parts.append(
            f'<text x="{px(tick):.1f}" y="{_MARGIN_TOP + plot_h + 16:.1f}" text-anchor="middle" '
            f'font-size="10" font-family="sans-serif">{_fmt(tick)}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        parts.append(
            f'<text x="{_MARGIN_LEFT - 6:.1f}" y="{py(tick) + 3:.1f}" text-anchor="end" '
            f'font-size="10" font-family="sans-serif">{_fmt(tick)}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.1f}" y="{_HEIGHT - 8}" text-anchor="middle" '
        f'font-size="12" font-family="sans-serif">{x_label}</text>'
    )
    parts.append(
        f'<text x="14" y="{_MARGIN_TOP + plot_h / 2:.1f}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif" transform="rotate(-90 14 {_MARGIN_TOP + plot_h / 2:.1f})">{y_label}</text>'
    )

    for index, (name, ys) in enumerate(series):
        color = _PALETTE[index % len(_PALETTE)]
        runs: list[list[str]] = [[]]
        for x, y in zip(xs, ys, strict=True):
            if y is None or not math.isfinite(y):
                if runs[-1]:
                    runs.append([])
                continue
            runs[-1].append(f"{px(x):.2f},{py(y):.2f}")
        for run in runs:
            if not run:
                continue
            # single points still render: duplicate the coordinate
            coords = " ".join(run) if len(run) >= 2 else f"{run[0]} {run[0]}"
            parts.append(
                f'<polyline class="series" data-name="{name}" points="{coords}" '
                f'fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        legend_y = _MARGIN_TOP + 14 * index
        parts.append(
            f'<rect x="{_MARGIN_LEFT + plot_w - 130:.1f}" y="{legend_y:.1f}" width="10" height="10" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT + plot_w - 116:.1f}" y="{legend_y + 9:.1f}" font-size="11" '
            f'font-family="sans-serif">{name}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_table(
    path, xs: Sequence[float], series: Sequence[tuple[str, Sequence[float | None]]], x_column: str = "x"
) -> None:
    """Write (name, ys) series over ``xs`` as a CSV table: the x column, then
    one column per series; a y that is None or not finite is an empty cell."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join([x_column, *(name for name, _ys in series)]) + "\n")
        for x, *ys in zip(xs, *(ys for _name, ys in series), strict=True):
            cells = ("" if y is None or not math.isfinite(y) else repr(float(y)) for y in ys)
            fh.write(",".join([repr(float(x)), *cells]) + "\n")


def csv_twin(svg_path):
    """The path of the CSV data twin of the chart at ``svg_path``: the same
    name with a ``.csv`` suffix in place of its own (``a/chart.svg`` ->
    ``a/chart.csv``)."""
    return os.path.splitext(svg_path)[0] + ".csv"


def write_chart(
    svg_path,
    xs: Sequence[float],
    series: Sequence[tuple[str, Sequence[float | None]]],
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    x_column: str = "x",
) -> None:
    """Write the SVG of (name, ys) series over ``xs`` and, at csv_twin of
    its path, its CSV data twin: the write_table of the same series."""
    with open(svg_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(line_chart_svg(xs, series, title=title, x_label=x_label, y_label=y_label))
    write_table(csv_twin(svg_path), xs, series, x_column)
