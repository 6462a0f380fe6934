"""Dependency-free SVG rendering of rejection-rate curves.

One panel per covariate count, each plotting rejection rate against the
non-inferiority margin: one polyline per scenario, ordered by (sample size,
noise variance, scenario id), and a horizontal reference line at the test
level, which all rows must share.  Polyline points are written in data
coordinates inside a scaled group, so the restricted-axis variant changes
only the viewport mapping, never the point data, and the output stays
diffable.
"""

from __future__ import annotations

import math

from .errors import DomainError

__all__ = ["REQUIRED_COLUMNS", "RESTRICTED_AXIS_MAX", "render_rejection_figure"]

REQUIRED_COLUMNS = ("scenario_id", "n", "k", "sigma2", "delta", "rejection_rate", "alpha")

RESTRICTED_AXIS_MAX = 0.2

_WIDTH = 880
_PANEL_LEFT = 80
_PANEL_WIDTH = 560
_PANEL_HEIGHT = 270
_PANEL_TOP = 56
_PANEL_GAP = 88
_LEGEND_X = _PANEL_LEFT + _PANEL_WIDTH + 28

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2", "#17becf")
_STROKE_WIDTHS = (1.1, 1.9, 2.7)


def _num(value: float) -> str:
    return format(float(value), ".8g")


def _parse_rows(rows):
    """The rows as entries; DomainError names the first row that lacks a
    column, holds a bad number, has another test level than row 0 or
    repeats a (scenario_id, delta) pair."""
    parsed = []
    seen = set()
    for index, row in enumerate(rows):
        for column in REQUIRED_COLUMNS:
            if column not in row or row[column] in (None, ""):
                raise DomainError(f"results row {index} is missing column {column!r}")
        try:
            entry = {
                "scenario_id": row["scenario_id"],
                "n": int(row["n"]),
                "k": int(row["k"]),
                "sigma2": float(row["sigma2"]),
                "delta": float(row["delta"]),
                "rate": float(row["rejection_rate"]),
                "alpha": float(row["alpha"]),
            }
        except (TypeError, ValueError) as exc:
            raise DomainError(f"results row {index} has a non-numeric cell: {exc}") from None
        for column in ("sigma2", "delta", "rejection_rate", "alpha"):
            if not math.isfinite(float(row[column])):
                raise DomainError(f"results row {index} has a non-finite {column!r}: {row[column]!r}")
        if parsed and entry["alpha"] != parsed[0]["alpha"]:
            raise DomainError(
                f"results row {index} has alpha {entry['alpha']!r}, row 0 {parsed[0]['alpha']!r}: "
                "one figure shows one test level"
            )
        key = (entry["scenario_id"], entry["delta"])
        if key in seen:
            raise DomainError(f"results row {index} repeats scenario {key[0]!r} at delta {key[1]!r}")
        seen.add(key)
        parsed.append(entry)
    return parsed


def render_rejection_figure(rows, *, restricted_axis: bool = False) -> str:
    """Render simulation result rows to an SVG document string.

    ``rows`` is a sequence of mappings carrying at least REQUIRED_COLUMNS
    (the parsed output of the ``simulate`` command).  ``restricted_axis``
    caps the vertical axis at RESTRICTED_AXIS_MAX so behaviour near the test
    level stays readable; curves above the cap are clipped, not rescaled.
    """
    rows = list(rows)
    if not rows:
        raise DomainError("no data rows to plot")
    data = _parse_rows(rows)

    panel_ks = sorted({entry["k"] for entry in data})
    alpha = data[0]["alpha"]
    y_max = RESTRICTED_AXIS_MAX if restricted_axis else 1.0
    x_values = sorted({entry["delta"] for entry in data})
    x_min, x_max = x_values[0], x_values[-1]
    if x_max - x_min < 1e-12:
        pad = max(0.005, abs(x_max) * 0.1)
        x_min, x_max = x_min - pad, x_max + pad

    all_n = sorted({entry["n"] for entry in data})
    all_sigma2 = sorted({entry["sigma2"] for entry in data})
    color_of = {n: _COLORS[i % len(_COLORS)] for i, n in enumerate(all_n)}
    width_of = {s: _STROKE_WIDTHS[i % len(_STROKE_WIDTHS)] for i, s in enumerate(all_sigma2)}

    height = _PANEL_TOP + len(panel_ks) * _PANEL_HEIGHT + (len(panel_ks) - 1) * _PANEL_GAP + 70
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{height}" '
        f'viewBox="0 0 {_WIDTH} {height}" font-family="sans-serif" font-size="12">',
        f'<text x="{_PANEL_LEFT}" y="26" font-size="16">'
        f"Non-inferiority rejection rate by margin</text>",
    ]

    sx = _PANEL_WIDTH / (x_max - x_min)
    sy = _PANEL_HEIGHT / y_max

    for panel_index, k in enumerate(panel_ks):
        top = _PANEL_TOP + panel_index * (_PANEL_HEIGHT + _PANEL_GAP)
        bottom = top + _PANEL_HEIGHT
        clip_id = f"panel{panel_index}-clip"
        transform = (
            f"translate({_num(_PANEL_LEFT - x_min * sx)} {_num(bottom)}) "
            f"scale({_num(sx)} {_num(-sy)})"
        )

        parts.append(f'<text x="{_PANEL_LEFT}" y="{top - 10}" font-size="14">K = {k}</text>')
        parts.append(
            f'<clipPath id="{clip_id}"><rect x="{_PANEL_LEFT}" y="{top}" '
            f'width="{_PANEL_WIDTH}" height="{_PANEL_HEIGHT}"/></clipPath>'
        )
        parts.append(
            f'<rect class="frame" x="{_PANEL_LEFT}" y="{top}" width="{_PANEL_WIDTH}" '
            f'height="{_PANEL_HEIGHT}" fill="none" stroke="#444"/>'
        )

        # Axis ticks and labels live in pixel space, outside the data group.
        for i in range(6):
            x_data = x_min + (x_max - x_min) * i / 5
            x_px = _PANEL_LEFT + _PANEL_WIDTH * i / 5
            parts.append(
                f'<line class="tick" x1="{_num(x_px)}" y1="{bottom}" '
                f'x2="{_num(x_px)}" y2="{bottom + 5}" stroke="#444"/>'
            )
            parts.append(
                f'<text x="{_num(x_px)}" y="{bottom + 18}" text-anchor="middle">'
                f"{x_data:.3g}</text>"
            )
        for i in range(5):
            y_data = y_max * i / 4
            y_px = bottom - _PANEL_HEIGHT * i / 4
            parts.append(
                f'<line class="tick" x1="{_PANEL_LEFT - 5}" y1="{_num(y_px)}" '
                f'x2="{_PANEL_LEFT}" y2="{_num(y_px)}" stroke="#444"/>'
            )
            parts.append(
                f'<text x="{_PANEL_LEFT - 8}" y="{_num(y_px + 4)}" text-anchor="end">'
                f"{y_data:.3g}</text>"
            )
        parts.append(
            f'<text x="{_PANEL_LEFT + _PANEL_WIDTH / 2:.0f}" y="{bottom + 36}" '
            f'text-anchor="middle">non-inferiority margin</text>'
        )
        parts.append(
            f'<text x="{_PANEL_LEFT - 52}" y="{top + _PANEL_HEIGHT / 2:.0f}" '
            f'text-anchor="middle" transform="rotate(-90 {_PANEL_LEFT - 52} '
            f'{top + _PANEL_HEIGHT / 2:.0f})">rejection rate</text>'
        )

        parts.append(f'<g clip-path="url(#{clip_id})">')
        parts.append(f'<g transform="{transform}">')
        parts.append(
            f'<line class="alpha-ref" x1="{_num(x_min)}" y1="{_num(alpha)}" '
            f'x2="{_num(x_max)}" y2="{_num(alpha)}" stroke="#000" stroke-width="1.4" '
            f'vector-effect="non-scaling-stroke"/>'
        )
        series = {}
        for entry in data:
            if entry["k"] != k:
                continue
            series.setdefault((entry["n"], entry["sigma2"], entry["scenario_id"]), []).append(
                (entry["delta"], entry["rate"])
            )
        for (n, sigma2, _), curve in sorted(series.items()):
            points = " ".join(f"{_num(delta)},{_num(rate)}" for delta, rate in sorted(curve))
            parts.append(
                f'<polyline class="series" fill="none" stroke="{color_of[n]}" '
                f'stroke-width="{width_of[sigma2]}" vector-effect="non-scaling-stroke" '
                f'points="{points}"/>'
            )
        parts.append("</g>")
        parts.append("</g>")

    # Legend: color encodes the sample size, stroke width the noise variance.
    legend_y = _PANEL_TOP
    parts.append(f'<text x="{_LEGEND_X}" y="{legend_y}" font-size="13">sample size</text>')
    for i, n in enumerate(all_n):
        y = legend_y + 16 + i * 18
        parts.append(
            f'<rect class="legend-swatch" x="{_LEGEND_X}" y="{y - 9}" width="22" '
            f'height="5" fill="{color_of[n]}"/>'
        )
        parts.append(f'<text x="{_LEGEND_X + 30}" y="{y}">N = {n}</text>')
    legend_y += 16 + len(all_n) * 18 + 14
    parts.append(f'<text x="{_LEGEND_X}" y="{legend_y}" font-size="13">noise variance</text>')
    for i, sigma2 in enumerate(all_sigma2):
        y = legend_y + 16 + i * 18
        parts.append(
            f'<rect class="legend-swatch" x="{_LEGEND_X}" y="{y - 7 - width_of[sigma2] / 2:.1f}" '
            f'width="22" height="{width_of[sigma2]}" fill="#555"/>'
        )
        parts.append(f'<text x="{_LEGEND_X + 30}" y="{y}">var = {sigma2:g}</text>')
    legend_y += 16 + len(all_sigma2) * 18 + 14
    parts.append(
        f'<text x="{_LEGEND_X}" y="{legend_y}">black line: alpha = {alpha:g}</text>'
    )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
