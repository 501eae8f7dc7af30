"""Self-contained HTML run reports: ``repro-ffs report``.

Joins one run's telemetry artifacts — the ``--metrics`` manifest, the
``--events`` JSONL log, the ``--trace`` span JSONL — into a single HTML
file a reviewer can open offline instead of replaying ten simulated
months: inline-SVG sparklines of the Figure 1/2 layout-score curves
(from ``day_sample`` events), bucket histograms straight from the
manifest's ``Histogram`` snapshots, the span tree with wall and
simulated time, per-experiment wall times, ``--profile`` attribution
tables, and run-registry trend lines.  A second
manifest/event-log pair (``--compare``) overlays its curves for
original-vs-realloc style comparisons.

Everything is generated with the standard library and embedded inline —
no scripts, no external fonts, no network fetches — so the artifact
stays viewable from a mail attachment or a CI artifact store.  Chart
conventions: one y-axis per chart, categorical series colors assigned
in fixed order (at most three series per chart, extra series folded
with a note), thin marks, values carried in text tokens with native
``<title>`` hover tooltips, and a dark variant selected via
``prefers-color-scheme`` rather than inverted.
"""

from __future__ import annotations

import html
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs import events as obs_events

__all__ = [
    "build_report",
    "build_inspect_report",
    "build_diff_report",
    "report_from_files",
]

#: Fixed-order categorical series colors (light, dark) — validated
#: all-pairs safe for up to three simultaneous series.
_SERIES_LIGHT = ("#2a78d6", "#eb6834", "#1baf7a")
_SERIES_DARK = ("#3987e5", "#d95926", "#199e70")
_MAX_SERIES = len(_SERIES_LIGHT)

_CSS = """
:root {
  color-scheme: light dark;
  --surface: #fcfcfb;
  --surface-2: #f1f0ec;
  --ink: #0b0b0b;
  --ink-2: #52514e;
  --grid: #dddbd4;
  --accent: #2a78d6;
  --series-1: #2a78d6;
  --series-2: #eb6834;
  --series-3: #1baf7a;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19;
    --surface-2: #262624;
    --ink: #ffffff;
    --ink-2: #c3c2b7;
    --grid: #3a3936;
    --accent: #3987e5;
    --series-1: #3987e5;
    --series-2: #d95926;
    --series-3: #199e70;
  }
}
html { background: var(--surface); }
body {
  margin: 0 auto; padding: 24px 20px 48px; max-width: 880px;
  background: var(--surface); color: var(--ink);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 8px; }
.meta { color: var(--ink-2); margin: 0 0 4px; }
section { margin-bottom: 8px; }
svg text { fill: var(--ink-2); font: 11px system-ui, sans-serif; }
svg .val { fill: var(--ink); font-weight: 600; }
.legend { display: flex; gap: 16px; flex-wrap: wrap; margin: 4px 0 8px;
          color: var(--ink-2); font-size: 12px; align-items: center; }
.chip { display: inline-block; width: 10px; height: 10px;
        border-radius: 2px; margin-right: 5px; vertical-align: -1px; }
table { border-collapse: collapse; margin: 6px 0; }
th, td { text-align: left; padding: 3px 14px 3px 0; font-size: 13px; }
th { color: var(--ink-2); font-weight: 600;
     border-bottom: 1px solid var(--grid); }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
ul.tree { list-style: none; padding-left: 18px; margin: 2px 0; }
ul.tree > li { padding: 1px 0; }
ul.tree .t { color: var(--ink-2); }
.bar { display: inline-block; height: 9px; border-radius: 2px;
       background: var(--accent); vertical-align: middle; }
.note { color: var(--ink-2); font-size: 12px; }
code { background: var(--surface-2); padding: 0 4px; border-radius: 3px; }
.lab { display: inline-block; padding: 0 6px; border-radius: 3px;
       font-size: 11px; font-weight: 600; text-transform: uppercase; }
.lab-regression { background: var(--series-2); color: var(--surface); }
.lab-notable { background: var(--series-1); color: var(--surface); }
.lab-noise { background: var(--surface-2); color: var(--ink-2); }
"""


def _esc(value: object) -> str:
    return html.escape(str(value), quote=True)


def _nice(value: object) -> str:
    """Compact numeric label."""
    if value is None:
        return "-"
    if isinstance(value, float):
        if value != 0 and abs(value) < 0.01:
            return f"{value:.3g}"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    if isinstance(value, int) and abs(value) >= 1000:
        return f"{value:,}"
    return str(value)


def _fmt_wall(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    if seconds < 0.001:
        return f"{seconds * 1e6:.0f}µs"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds:.2f}s"


# ----------------------------------------------------------------------
# SVG charts
# ----------------------------------------------------------------------


def _line_chart(
    series: Sequence[Tuple[str, Sequence[Tuple[float, float]]]],
    y_label: str,
    width: int = 660,
    height: int = 170,
    x_label: str = "simulated day",
) -> str:
    """Inline-SVG line chart: one y-axis, ≤3 series, hover titles."""
    shown = list(series[:_MAX_SERIES])
    folded = len(series) - len(shown)
    pad_l, pad_r, pad_t, pad_b = 44, 14, 8, 24
    plot_w, plot_h = width - pad_l - pad_r, height - pad_t - pad_b
    xs = [x for _, pts in shown for x, _ in pts]
    ys = [y for _, pts in shown for _, y in pts]
    if not xs:
        return '<p class="note">(no samples)</p>'
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    if x_max == x_min:
        x_max = x_min + 1
    span = (y_max - y_min) or max(abs(y_max), 1e-9) * 0.1
    y_min, y_max = y_min - 0.05 * span, y_max + 0.05 * span

    def px(x: float) -> float:
        return pad_l + (x - x_min) / (x_max - x_min) * plot_w

    def py(y: float) -> float:
        return pad_t + (y_max - y) / (y_max - y_min) * plot_h

    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" aria-label="{_esc(y_label)}">'
    ]
    # Recessive grid: three horizontal rules + y labels.
    for frac in (0.0, 0.5, 1.0):
        y_val = y_min + frac * (y_max - y_min)
        y_px = py(y_val)
        parts.append(
            f'<line x1="{pad_l}" y1="{y_px:.1f}" x2="{width - pad_r}" '
            f'y2="{y_px:.1f}" stroke="var(--grid)" stroke-width="1"/>'
            f'<text x="{pad_l - 6}" y="{y_px + 4:.1f}" '
            f'text-anchor="end">{_nice(y_val)}</text>'
        )
    for x_val in (x_min, (x_min + x_max) / 2, x_max):
        parts.append(
            f'<text x="{px(x_val):.1f}" y="{height - 6}" '
            f'text-anchor="middle">{_nice(x_val)}</text>'
        )
    for idx, (label, pts) in enumerate(shown):
        color = f"var(--series-{idx + 1})"
        coords = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="2" stroke-linejoin="round"/>'
        )
        if pts:
            lx, ly = pts[-1]
            parts.append(
                f'<circle cx="{px(lx):.1f}" cy="{py(ly):.1f}" r="3" '
                f'fill="{color}"/>'
            )
        for x, y in pts:
            parts.append(
                f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="7" '
                f'fill="transparent"><title>{_esc(label)} — '
                f'{_esc(x_label)} {_nice(x)}: {_nice(y)}</title></circle>'
            )
    parts.append("</svg>")
    legend = "".join(
        f'<span><span class="chip" style="background:var(--series-{i + 1})">'
        f"</span>{_esc(label)} · {_nice(pts[-1][1]) if pts else '-'}</span>"
        for i, (label, pts) in enumerate(shown)
    )
    fold_note = (
        f'<span class="note">(+{folded} more series folded)</span>'
        if folded > 0 else ""
    )
    legend_html = (
        f'<div class="legend">{legend}{fold_note}</div>'
        if len(shown) > 1 or folded else ""
    )
    return "".join(parts) + legend_html


def _histogram_chart(
    name: str, data: Dict[str, object], width: int = 660, height: int = 120
) -> str:
    """Inline-SVG bar chart of one Histogram snapshot's buckets."""
    buckets: List[Tuple[object, int]] = [
        (bound, int(count)) for bound, count in data.get("buckets", [])  # type: ignore[union-attr]
    ]
    if not buckets:
        return '<p class="note">(no observations)</p>'
    pad_l, pad_r, pad_t, pad_b = 44, 8, 6, 20
    plot_w, plot_h = width - pad_l - pad_r, height - pad_t - pad_b
    peak = max(count for _, count in buckets)
    n = len(buckets)
    gap = 2
    bar_w = max(2.0, (plot_w - gap * (n - 1)) / n)
    label_every = max(1, (n + 11) // 12)
    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" aria-label="{_esc(name)}">'
        f'<line x1="{pad_l}" y1="{pad_t + plot_h}" x2="{width - pad_r}" '
        f'y2="{pad_t + plot_h}" stroke="var(--grid)" stroke-width="1"/>'
        f'<text x="{pad_l - 6}" y="{pad_t + 8}" text-anchor="end">'
        f"{_nice(peak)}</text>"
    ]
    for i, (bound, count) in enumerate(buckets):
        x = pad_l + i * (bar_w + gap)
        h = max(1.0, plot_h * count / peak) if count else 0.0
        y = pad_t + plot_h - h
        r = min(2.0, bar_w / 2, h)
        label = "+inf" if bound == "+inf" else _nice(bound)
        if h:
            # Rounded top corners only; the base stays anchored.
            parts.append(
                f'<path d="M{x:.1f},{pad_t + plot_h:.1f} '
                f'L{x:.1f},{y + r:.1f} Q{x:.1f},{y:.1f} {x + r:.1f},{y:.1f} '
                f'L{x + bar_w - r:.1f},{y:.1f} '
                f'Q{x + bar_w:.1f},{y:.1f} {x + bar_w:.1f},{y + r:.1f} '
                f'L{x + bar_w:.1f},{pad_t + plot_h:.1f} Z" '
                f'fill="var(--accent)">'
                f"<title>&#8804; {_esc(label)}: {count:,} observations</title>"
                f"</path>"
            )
        if i % label_every == 0 or i == n - 1:
            parts.append(
                f'<text x="{x + bar_w / 2:.1f}" y="{height - 5}" '
                f'text-anchor="middle">{_esc(label)}</text>'
            )
    parts.append("</svg>")
    return "".join(parts)


def _signed_bar_chart(
    pairs: Sequence[Tuple[object, float]],
    caption: str,
    width: int = 660,
    height: int = 130,
) -> str:
    """Inline-SVG signed bar strip: growth up in the primary series
    color, shrinkage down in the secondary, around a zero baseline.

    The diff report's workhorse — per-bucket histogram count deltas and
    per-CG occupancy deltas both render through it.
    """
    values = [float(v) for _, v in pairs]
    if not values:
        return '<p class="note">(no buckets)</p>'
    peak = max(abs(v) for v in values) or 1.0
    pad_l, pad_r, pad_t, pad_b = 44, 8, 6, 20
    plot_w, plot_h = width - pad_l - pad_r, height - pad_t - pad_b
    zero_y = pad_t + plot_h / 2.0
    half = plot_h / 2.0 - 2
    n = len(pairs)
    gap = 2
    bar_w = max(2.0, (plot_w - gap * (n - 1)) / n)
    label_every = max(1, (n + 11) // 12)
    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" aria-label="{_esc(caption)}">'
        f'<line x1="{pad_l}" y1="{zero_y:.1f}" x2="{width - pad_r}" '
        f'y2="{zero_y:.1f}" stroke="var(--grid)" stroke-width="1"/>'
        f'<text x="{pad_l - 6}" y="{pad_t + 8}" text-anchor="end">'
        f"+{_nice(peak)}</text>"
        f'<text x="{pad_l - 6}" y="{pad_t + plot_h:.1f}" text-anchor="end">'
        f"-{_nice(peak)}</text>"
    ]
    for i, (bound, value) in enumerate(pairs):
        x = pad_l + i * (bar_w + gap)
        label = "+inf" if bound == "+inf" else _nice(bound)
        if value:
            h = max(1.0, half * abs(float(value)) / peak)
            color = "var(--series-1)" if value > 0 else "var(--series-2)"
            y = zero_y - h if value > 0 else zero_y
            parts.append(
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w:.1f}" '
                f'height="{h:.1f}" fill="{color}">'
                f"<title>{_esc(label)}: "
                f"{'+' if value > 0 else ''}{_nice(value)}</title></rect>"
            )
        if i % label_every == 0 or i == n - 1:
            parts.append(
                f'<text x="{x + bar_w / 2:.1f}" y="{height - 5}" '
                f'text-anchor="middle">{_esc(label)}</text>'
            )
    parts.append("</svg>")
    return "".join(parts)


def _signed_heatmap_chart(
    days: Sequence[int],
    matrix: Sequence[Sequence[float]],
    caption: str,
    width: int = 660,
    height: int = 150,
    max_cols: int = 100,
) -> str:
    """Signed day × CG delta heatmap: run-b-fuller cells in the primary
    series color, run-a-fuller cells in the secondary, intensity in
    ``fill-opacity`` scaled to the matrix's own peak |delta|."""
    if not matrix or not matrix[0]:
        return '<p class="note">(no per-group samples on both sides)</p>'
    peak = max((abs(v) for row in matrix for v in row), default=0.0) or 1.0
    stride = max(1, -(-len(days) // max_cols))
    cols = list(range(0, len(days), stride))
    if cols[-1] != len(days) - 1:
        cols.append(len(days) - 1)
    ncg = max(len(row) for row in matrix)
    pad_l, pad_r, pad_t, pad_b = 44, 8, 6, 20
    plot_w, plot_h = width - pad_l - pad_r, height - pad_t - pad_b
    cell_w = plot_w / len(cols)
    cell_h = plot_h / ncg
    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" aria-label="{_esc(caption)}">'
        f'<text x="{pad_l - 6}" y="{pad_t + 8}" text-anchor="end">cg 0</text>'
        f'<text x="{pad_l - 6}" y="{pad_t + plot_h:.1f}" text-anchor="end">'
        f"cg {ncg - 1}</text>"
    ]
    for i, col in enumerate(cols):
        row = matrix[col]
        x = pad_l + i * cell_w
        for cg in range(len(row)):
            value = float(row[cg])
            opacity = min(1.0, abs(value) / peak)
            if opacity < 0.01:
                continue
            color = "var(--series-1)" if value > 0 else "var(--series-2)"
            y = pad_t + cg * cell_h
            parts.append(
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{cell_w:.2f}" '
                f'height="{cell_h:.2f}" fill="{color}" '
                f'fill-opacity="{opacity:.3f}">'
                f"<title>day {days[col]}, cg {cg}: "
                f"{'+' if value > 0 else ''}{value:.3f}</title></rect>"
            )
    for col_index in (0, len(cols) - 1):
        x = pad_l + (col_index + 0.5) * cell_w
        parts.append(
            f'<text x="{x:.1f}" y="{height - 5}" text-anchor="middle">'
            f"day {days[cols[col_index]]}</text>"
        )
    parts.append("</svg>")
    return "".join(parts)


# ----------------------------------------------------------------------
# Sections
# ----------------------------------------------------------------------


def _header_section(manifest: Dict[str, object], compare: bool) -> str:
    command = manifest.get("command", "?")
    config = manifest.get("config", {}) or {}
    env = manifest.get("environment", {}) or {}
    config_text = " ".join(
        f"{key}={value}"
        for key, value in sorted(config.items())  # type: ignore[union-attr]
        if value is not None and not isinstance(value, (dict, list))
    )
    wall = manifest.get("wall_seconds")
    title = f"repro run report — {command}{' (comparison)' if compare else ''}"
    return (
        f"<header><h1>{_esc(title)}</h1>"
        f'<p class="meta">repro-ffs {_esc(command)} {_esc(config_text)}</p>'
        f'<p class="meta">wall {_esc(_fmt_wall(wall))} · '  # type: ignore[arg-type]
        f"python {_esc(env.get('python', '?'))} on "  # type: ignore[union-attr]
        f"{_esc(env.get('platform', '?'))} · schema "  # type: ignore[union-attr]
        f"{_esc(manifest.get('schema', '?'))}</p></header>"
    )


def _day_series(
    rows: Sequence[Dict[str, object]], field: str, suffix: str = ""
) -> List[Tuple[str, List[Tuple[float, float]]]]:
    """Per-label (day, field) series from day_sample rows, in first-seen
    label order."""
    order: List[str] = []
    series: Dict[str, List[Tuple[float, float]]] = {}
    for row in rows:
        if row.get("type") != obs_events.DAY_SAMPLE or field not in row:
            continue
        label = str(row.get("label", "?")) + suffix
        if label not in series:
            series[label] = []
            order.append(label)
        series[label].append((float(row["day"]), float(row[field])))  # type: ignore[arg-type]
    return [(label, series[label]) for label in order]


def _timeline_section(
    events: Sequence[Dict[str, object]],
    compare_events: Sequence[Dict[str, object]],
) -> str:
    score = _day_series(events, "layout_score")
    score += _day_series(compare_events, "layout_score", suffix=" (compare)")
    if not score:
        return ""
    out = [
        "<section><h2>Layout score by simulated day</h2>",
        _line_chart(score, y_label="layout score"),
    ]
    util = _day_series(events, "utilization")
    util += _day_series(compare_events, "utilization", suffix=" (compare)")
    if util:
        out.append("<h2>Utilization by simulated day</h2>")
        out.append(_line_chart(util, y_label="utilization", height=120))
    out.append("</section>")
    return "".join(out)


def _heatmap_chart(
    days: Sequence[int],
    matrix: Sequence[Sequence[float]],
    caption: str,
    width: int = 660,
    height: int = 150,
    max_cols: int = 100,
) -> str:
    """Inline-SVG day × CG heatmap: one shaded cell per (day, group).

    Cell intensity is carried in ``fill-opacity`` over the accent color,
    so the map needs no gradient resources and adapts to dark mode like
    every other chart.  Long agings are column-sampled down to
    ``max_cols`` days — a trend surface, not a lossless archive.
    """
    if not matrix or not matrix[0]:
        return '<p class="note">(no per-group samples)</p>'
    stride = max(1, -(-len(days) // max_cols))
    cols = list(range(0, len(days), stride))
    if cols[-1] != len(days) - 1:
        cols.append(len(days) - 1)
    ncg = len(matrix[0])
    pad_l, pad_r, pad_t, pad_b = 44, 8, 6, 20
    plot_w, plot_h = width - pad_l - pad_r, height - pad_t - pad_b
    cell_w = plot_w / len(cols)
    cell_h = plot_h / ncg
    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" aria-label="{_esc(caption)}">'
        f'<text x="{pad_l - 6}" y="{pad_t + 8}" text-anchor="end">cg 0</text>'
        f'<text x="{pad_l - 6}" y="{pad_t + plot_h:.1f}" text-anchor="end">'
        f"cg {ncg - 1}</text>"
    ]
    for i, col in enumerate(cols):
        row = matrix[col]
        x = pad_l + i * cell_w
        for cg in range(min(ncg, len(row))):
            value = max(0.0, min(1.0, float(row[cg])))
            if value < 0.005:
                continue
            y = pad_t + cg * cell_h
            parts.append(
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{cell_w:.2f}" '
                f'height="{cell_h:.2f}" fill="var(--accent)" '
                f'fill-opacity="{value:.3f}">'
                f"<title>day {days[col]}, cg {cg}: {value:.2f}</title>"
                f"</rect>"
            )
    for col_index in (0, len(cols) - 1):
        x = pad_l + (col_index + 0.5) * cell_w
        parts.append(
            f'<text x="{x:.1f}" y="{height - 5}" text-anchor="middle">'
            f"day {days[cols[col_index]]}</text>"
        )
    parts.append("</svg>")
    return "".join(parts)


def _heatmap_section(events: Sequence[Dict[str, object]]) -> str:
    """Per-CG occupancy and fragmentation heatmaps from day samples."""
    from repro.obs.heatmap import heatmap_series

    all_series = heatmap_series(events)
    if not all_series:
        return ""
    out = ["<section><h2>Layout heatmaps (cylinder group × day)</h2>"]
    for series in all_series[:_MAX_SERIES]:
        out.append(
            f'<p class="meta">{_esc(series.label)} — occupancy '
            f"(darker = fuller group)</p>"
        )
        out.append(
            _heatmap_chart(
                series.days, series.occupancy,
                caption=f"{series.label} occupancy heatmap",
            )
        )
        out.append(
            f'<p class="meta">{_esc(series.label)} — free-space '
            f"fragmentation (darker = more shattered free space)</p>"
        )
        out.append(
            _heatmap_chart(
                series.days, series.frag,
                caption=f"{series.label} fragmentation heatmap",
            )
        )
    if len(all_series) > _MAX_SERIES:
        out.append(
            f'<p class="note">(+{len(all_series) - _MAX_SERIES} more '
            f"series folded)</p>"
        )
    out.append("</section>")
    return "".join(out)


def _disktrace_section(trace_rows: Sequence[Dict[str, object]]) -> str:
    """Request anatomy panels from a ``--disk-trace`` capture."""
    from repro.obs.export import bucket_quantile
    from repro.obs.heatmap import (
        inter_request_histogram,
        seek_distance_histogram,
        trace_summary,
    )

    if not trace_rows:
        return ""
    summary = trace_summary(trace_rows)
    cells = "".join(
        f"<tr><td>{_esc(label)}</td>"
        f'<td class="num">{_nice(summary.get(key))}</td></tr>'
        for label, key in (
            ("requests", "requests"),
            ("reads", "reads"),
            ("writes", "writes"),
            ("lost rotations", "lost_rotations"),
            ("track-buffer hits", "buffer_hits"),
            ("total service (ms)", "service_ms"),
        )
    )
    dropped = summary.get("dropped") or 0
    note = (
        f'<p class="note">{dropped:,} requests dropped at the trace '
        f"bound.</p>"
        if dropped else ""
    )
    out = [
        "<section><h2>Disk I/O trace</h2><table>"
        '<tr><th>requests</th><th class="num">count</th></tr>'
        f"{cells}</table>{note}"
    ]
    for title, data in (
        ("Seek distance (cylinders per paid seek)",
         seek_distance_histogram(trace_rows)),
        ("Inter-request distance (cylinders between requests)",
         inter_request_histogram(trace_rows)),
    ):
        if data is None:
            continue
        quantiles = " · ".join(
            f"p{int(q * 100)} ≤ {_nice(bucket_quantile(data, q))}"
            for q in (0.5, 0.9, 0.99)
        )
        out.append(
            f'<p class="meta">{_esc(title)} — count {data.get("count"):,}, '
            f"{quantiles}</p>"
        )
        out.append(_histogram_chart(title, data))
    out.append("</section>")
    return "".join(out)


def _history_section(runs: Sequence[Dict[str, object]]) -> str:
    """Per-policy trend lines across the recorded run registry."""
    if not runs:
        return ""
    score_series: Dict[str, List[Tuple[float, float]]] = {}
    order: List[str] = []
    throughput: List[Tuple[float, float]] = []
    for index, document in enumerate(runs):
        summary = document.get("summary")
        summary = summary if isinstance(summary, dict) else {}
        scores = summary.get("layout_scores")
        if isinstance(scores, dict):
            for label, value in scores.items():
                if label not in score_series:
                    score_series[label] = []
                    order.append(label)
                score_series[label].append((float(index), float(value)))
        mb_s = summary.get("throughput_mb_s")
        if isinstance(mb_s, (int, float)):
            throughput.append((float(index), float(mb_s)))
    out = [f"<section><h2>Run history ({len(runs)} recorded)</h2>"]
    plotted = False
    if score_series:
        out.append('<p class="meta">final layout score per recorded run</p>')
        out.append(
            _line_chart(
                [(label, score_series[label]) for label in order],
                y_label="final layout score", x_label="recorded run #",
            )
        )
        plotted = True
    if len(throughput) > 1:
        out.append('<p class="meta">aggregate disk throughput (MB/s)</p>')
        out.append(
            _line_chart(
                [("throughput", throughput)], y_label="MB/s",
                x_label="recorded run #", height=120,
            )
        )
        plotted = True
    if not plotted:
        out.append(
            '<p class="note">(recorded runs carry no layout or '
            "throughput summaries)</p>"
        )
    out.append("</section>")
    return "".join(out)


def _event_summary_section(
    events: Sequence[Dict[str, object]], dropped: int = 0
) -> str:
    if not events:
        return ""
    counts: Dict[str, int] = {}
    for row in events:
        kind = str(row.get("type", "?"))
        counts[kind] = counts.get(kind, 0) + 1
    rows = "".join(
        f"<tr><td><code>{_esc(kind)}</code></td>"
        f'<td class="num">{count:,}</td></tr>'
        for kind, count in sorted(counts.items())
    )
    note = (
        f'<p class="note">{dropped:,} events dropped at the log bound.</p>'
        if dropped else ""
    )
    return (
        "<section><h2>Event log</h2><table>"
        '<tr><th>event type</th><th class="num">count</th></tr>'
        f"{rows}</table>{note}</section>"
    )


def _histograms_section(manifest: Dict[str, object], cap: int = 8) -> str:
    metrics = manifest.get("metrics", {}) or {}
    histograms = [
        (name, data)
        for name, data in sorted(metrics.items())  # type: ignore[union-attr]
        if data.get("type") == "histogram" and data.get("count")
    ]
    if not histograms:
        return ""
    out = ["<section><h2>Distributions</h2>"]
    for name, data in histograms[:cap]:
        out.append(
            f'<p class="meta"><code>{_esc(name)}</code> — '
            f"count {data.get('count'):,}, mean {_nice(data.get('mean'))}, "
            f"min {_nice(data.get('min'))}, max {_nice(data.get('max'))}</p>"
        )
        out.append(_histogram_chart(name, data))
    if len(histograms) > cap:
        out.append(
            f'<p class="note">(+{len(histograms) - cap} more histograms '
            f"in the manifest)</p>"
        )
    out.append("</section>")
    return "".join(out)


def _span_tree_section(spans: Sequence[Dict[str, object]], cap: int = 1500) -> str:
    if not spans:
        return ""
    children: Dict[object, List[Dict[str, object]]] = {}
    ids = {row.get("span_id") for row in spans}
    roots: List[Dict[str, object]] = []
    for row in spans:
        parent = row.get("parent_id")
        if parent is None or parent not in ids:
            roots.append(row)
        else:
            children.setdefault(parent, []).append(row)
    emitted = [0]

    def one(row: Dict[str, object]) -> str:
        wall = _fmt_wall(row.get("wall_elapsed_s"))  # type: ignore[arg-type]
        sim = row.get("sim_elapsed")
        sim_text = f" · sim {_nice(sim)}" if sim is not None else ""
        attrs = row.get("attrs") or {}
        attr_text = ""
        if isinstance(attrs, dict) and attrs:
            pairs = list(attrs.items())[:3]
            attr_text = " · " + ", ".join(
                f"{_esc(k)}={_esc(_nice(v))}" for k, v in pairs
            )
        return (
            f"<strong>{_esc(row.get('name', '?'))}</strong> "
            f'<span class="t">{_esc(wall)}{sim_text}{attr_text}</span>'
        )

    def render(nodes: List[Dict[str, object]]) -> str:
        nodes = sorted(nodes, key=lambda r: r.get("span_id") or 0)
        items: List[str] = []
        index = 0
        while index < len(nodes):
            row = nodes[index]
            name = row.get("name")
            run = [row]
            while (
                index + len(run) < len(nodes)
                and nodes[index + len(run)].get("name") == name
            ):
                run.append(nodes[index + len(run)])
            if len(run) > 6:
                total = sum(
                    float(r.get("wall_elapsed_s") or 0.0) for r in run
                )
                sims = [r.get("sim_elapsed") for r in run]
                sim_total = sum(float(s) for s in sims if s is not None)
                sim_text = f" · sim {_nice(sim_total)}" if sim_total else ""
                items.append(
                    f"<li>{len(run)} × <strong>{_esc(name)}</strong> "
                    f'<span class="t">total {_esc(_fmt_wall(total))}'
                    f"{sim_text}</span></li>"
                )
                emitted[0] += 1
                index += len(run)
                continue
            emitted[0] += 1
            if emitted[0] > cap:
                items.append('<li class="t">…truncated…</li>')
                break
            kids = children.get(row.get("span_id"), [])
            sub = render(kids) if kids else ""
            items.append(f"<li>{one(row)}{sub}</li>")
            index += 1
        return f'<ul class="tree">{"".join(items)}</ul>'

    return (
        "<section><h2>Span tree</h2>"
        + render(roots)
        + "</section>"
    )


def _timings_section(manifest: Dict[str, object]) -> str:
    timings = manifest.get("timings", {}) or {}
    if not timings:
        return ""
    peak = max(float(v) for v in timings.values()) or 1.0  # type: ignore[union-attr, arg-type]
    rows = "".join(
        f"<tr><td><code>{_esc(name)}</code></td>"
        f'<td class="num">{_esc(_fmt_wall(float(wall)))}</td>'
        f'<td><span class="bar" style="width:'
        f'{max(2, round(180 * float(wall) / peak))}px"></span></td></tr>'
        for name, wall in sorted(
            timings.items(), key=lambda kv: (-float(kv[1]), kv[0])  # type: ignore[union-attr, arg-type]
        )
    )
    return (
        "<section><h2>Experiment wall times</h2><table>"
        '<tr><th>experiment</th><th class="num">wall</th><th></th></tr>'
        f"{rows}</table></section>"
    )


def _profile_section(manifest: Dict[str, object]) -> str:
    profile = manifest.get("profile", {}) or {}
    if not profile:
        return ""
    out = ["<section><h2>Profile (top offenders per phase)</h2>"]
    for phase, rows in profile.items():  # type: ignore[union-attr]
        body = "".join(
            f"<tr><td><code>{_esc(row.get('function'))}</code></td>"
            f'<td class="num">{_esc(row.get("ncalls"))}</td>'
            f'<td class="num">{_nice(row.get("tottime_s"))}</td>'
            f'<td class="num">{_nice(row.get("cumtime_s"))}</td></tr>'
            for row in rows
        )
        out.append(
            f'<p class="meta"><code>{_esc(phase)}</code></p><table>'
            '<tr><th>function</th><th class="num">ncalls</th>'
            '<th class="num">tottime (s)</th><th class="num">cumtime (s)</th>'
            f"</tr>{body}</table>"
        )
    out.append("</section>")
    return "".join(out)


def _compare_section(
    manifest: Dict[str, object], compare: Dict[str, object]
) -> str:
    def line(m: Dict[str, object]) -> str:
        config = m.get("config", {}) or {}
        preset = config.get("preset", "?")  # type: ignore[union-attr]
        return (
            f"<td>repro-ffs {_esc(m.get('command', '?'))}</td>"
            f"<td>{_esc(preset)}</td>"
            f"<td class=\"num\">{_esc(_fmt_wall(m.get('wall_seconds')))}</td>"  # type: ignore[arg-type]
        )

    return (
        "<section><h2>Compared runs</h2><table>"
        '<tr><th></th><th>command</th><th>preset</th>'
        '<th class="num">wall</th></tr>'
        f"<tr><td>primary</td>{line(manifest)}</tr>"
        f"<tr><td>compare</td>{line(compare)}</tr>"
        "</table></section>"
    )


def _cg_bar_chart(
    groups: Sequence[Dict[str, object]],
    field: str,
    caption: str,
    peak: Optional[float] = None,
    width: int = 660,
    height: int = 110,
) -> str:
    """Per-cylinder-group bar strip for inspect documents."""
    values = [float(g.get(field, 0.0) or 0.0) for g in groups]  # type: ignore[arg-type]
    if not values:
        return '<p class="note">(no groups)</p>'
    top = peak if peak is not None else (max(values) or 1.0)
    top = top or 1.0
    pad_l, pad_r, pad_t, pad_b = 44, 8, 6, 20
    plot_w, plot_h = width - pad_l - pad_r, height - pad_t - pad_b
    n = len(values)
    gap = 1
    bar_w = max(1.5, (plot_w - gap * (n - 1)) / n)
    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" aria-label="{_esc(caption)}">'
        f'<line x1="{pad_l}" y1="{pad_t + plot_h}" x2="{width - pad_r}" '
        f'y2="{pad_t + plot_h}" stroke="var(--grid)" stroke-width="1"/>'
        f'<text x="{pad_l - 6}" y="{pad_t + 8}" text-anchor="end">'
        f"{_nice(top)}</text>"
    ]
    for i, value in enumerate(values):
        x = pad_l + i * (bar_w + gap)
        h = plot_h * min(1.0, value / top) if value > 0 else 0.0
        if h:
            parts.append(
                f'<rect x="{x:.1f}" y="{pad_t + plot_h - h:.1f}" '
                f'width="{bar_w:.1f}" height="{h:.1f}" fill="var(--accent)">'
                f"<title>cg {i}: {_nice(value)}</title></rect>"
            )
    for i in (0, n - 1):
        x = pad_l + i * (bar_w + gap) + bar_w / 2
        parts.append(
            f'<text x="{x:.1f}" y="{height - 5}" text-anchor="middle">'
            f"cg {i}</text>"
        )
    parts.append("</svg>")
    return "".join(parts)


def build_inspect_report(documents: Sequence[Dict[str, object]]) -> str:
    """``repro-ffs inspect --html``: placement documents as one page."""
    sections: List[str] = []
    labels = " vs ".join(_esc(d.get("label", "?")) for d in documents)
    sections.append(
        f"<header><h1>placement inspection — {labels}</h1>"
        f'<p class="meta">schema {_esc(documents[0].get("schema", "?") if documents else "?")}'
        f"</p></header>"
    )
    for document in documents:
        groups = document.get("groups")
        groups = groups if isinstance(groups, list) else []
        free = document.get("freespace")
        free = free if isinstance(free, dict) else {}
        sections.append(
            f"<section><h2>{_esc(document.get('label', '?'))}</h2>"
            f'<p class="meta">policy {_esc(document.get("policy", "?"))} · '
            f"utilization {_nice(document.get('utilization'))} · "
            f"aggregate layout score "
            f"{_nice(document.get('aggregate_layout_score'))} · "
            f"{_nice(free.get('n_runs'))} free runs, largest "
            f"{_nice(free.get('largest_run'))}</p>"
        )
        sections.append('<p class="meta">occupancy by cylinder group</p>')
        sections.append(
            _cg_bar_chart(groups, "occupancy", "occupancy by group", peak=1.0)
        )
        sections.append(
            '<p class="meta">spill blocks by group (data homed '
            "elsewhere)</p>"
        )
        sections.append(
            _cg_bar_chart(groups, "spill_blocks", "spill blocks by group")
        )
        sections.append(
            '<p class="meta">largest free run by group (blocks)</p>'
        )
        sections.append(
            _cg_bar_chart(
                groups, "largest_free_run", "largest free run by group"
            )
        )
        files = document.get("files")
        files = files if isinstance(files, list) else []
        if files:
            sections.append(
                f'<p class="meta">largest files (top {len(files)} of '
                f"{_nice(document.get('files_total'))})</p>"
            )
            rows = "".join(
                f'<tr><td class="num">{_esc(f.get("ino"))}</td>'
                f'<td class="num">{_nice(f.get("size"))}</td>'
                f'<td class="num">{_nice(f.get("blocks"))}</td>'
                f'<td class="num">{_esc(f.get("home_cg"))}</td>'
                f'<td class="num">{_nice(f.get("cg_span"))}</td>'
                f'<td class="num">{_nice(f.get("cyl_span"))}</td>'
                f'<td class="num">{_nice(f.get("layout_score"))}</td></tr>'
                for f in files
            )
            sections.append(
                "<table><tr>"
                '<th class="num">ino</th><th class="num">size (bytes)</th>'
                '<th class="num">blocks</th><th class="num">home cg</th>'
                '<th class="num">cg span</th><th class="num">cyl span</th>'
                '<th class="num">score</th></tr>'
                f"{rows}</table>"
            )
        sections.append("</section>")
    body = "".join(sections)
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        '<meta name="viewport" content="width=device-width, initial-scale=1">\n'
        f"<title>placement inspection</title>\n"
        f"<style>{_CSS}</style></head>\n"
        f"<body>{body}</body></html>\n"
    )


def _diff_header_section(document: Dict[str, object]) -> str:
    a = document.get("a")
    b = document.get("b")
    a = a if isinstance(a, dict) else {}
    b = b if isinstance(b, dict) else {}
    counts = document.get("counts")
    counts = counts if isinstance(counts, dict) else {}

    def side_row(tag: str, side: Dict[str, object]) -> str:
        return (
            f"<tr><td>{_esc(tag)}</td>"
            f"<td><code>{_esc(side.get('label', '?'))}</code></td>"
            f"<td>repro-ffs {_esc(side.get('command', '?'))}</td>"
            f"<td>{_esc(side.get('preset') or '-')}</td>"
            f"<td>{_esc(side.get('policy') or '-')}</td>"
            f"<td>{_esc(side.get('backend') or '-')}</td>"
            f'<td class="num">'
            f"{_esc(_fmt_wall(side.get('wall_seconds')))}</td></tr>"  # type: ignore[arg-type]
        )

    title = f"run diff — {a.get('label', '?')} vs {b.get('label', '?')}"
    badge = (
        f'<span class="lab lab-regression">{counts.get("regression", 0)} '
        f'regression</span> <span class="lab lab-notable">'
        f'{counts.get("notable", 0)} notable</span> '
        f'<span class="lab lab-noise">{counts.get("noise", 0)} noise</span>'
    )
    return (
        f"<header><h1>{_esc(title)}</h1>"
        f'<p class="meta">schema {_esc(document.get("schema", "?"))} · '
        f"{badge}</p></header>"
        "<section><table>"
        "<tr><th></th><th>run</th><th>command</th><th>preset</th>"
        '<th>policy</th><th>backend</th><th class="num">wall</th></tr>'
        f"{side_row('a', a)}{side_row('b', b)}</table></section>"
    )


def _diff_deltas_section(document: Dict[str, object]) -> str:
    deltas = document.get("deltas")
    deltas = deltas if isinstance(deltas, list) else []
    significant = [r for r in deltas if r.get("label") != "noise"]
    if not significant:
        return (
            "<section><h2>Significant deltas</h2>"
            '<p class="note">none — the runs are equivalent under the '
            f"classifier ({len(deltas)} comparisons, all noise).</p>"
            "</section>"
        )
    rows = []
    for r in significant:
        delta = r.get("delta")
        rel = r.get("rel")
        sign = "+" if isinstance(delta, (int, float)) and delta >= 0 else ""
        rel_text = (
            f" ({'+' if rel >= 0 else ''}{rel:.1%})"
            if isinstance(rel, (int, float)) else ""
        )
        rows.append(
            f'<tr><td><span class="lab lab-{_esc(r.get("label"))}">'
            f"{_esc(r.get('label'))}</span></td>"
            f"<td>{_esc(r.get('section', '?'))}</td>"
            f"<td><code>{_esc(r.get('name', '?'))}</code></td>"
            f'<td class="num">{_nice(r.get("baseline"))}</td>'
            f'<td class="num">{_nice(r.get("current"))}</td>'
            f'<td class="num">{sign}{_nice(delta)}{_esc(rel_text)}</td></tr>'
        )
    return (
        "<section><h2>Significant deltas</h2><table>"
        "<tr><th></th><th>section</th><th>metric</th>"
        '<th class="num">a</th><th class="num">b</th>'
        '<th class="num">delta</th></tr>'
        f"{''.join(rows)}</table>"
        f'<p class="note">{len(deltas) - len(significant)} further '
        "comparisons classified as noise.</p></section>"
    )


def _diff_timeline_section(document: Dict[str, object]) -> str:
    timeline = document.get("timeline")
    timeline = timeline if isinstance(timeline, dict) else {}
    pairs = timeline.get("pairs")
    pairs = pairs if isinstance(pairs, list) else []
    if not pairs:
        return ""
    a = document.get("a")
    b = document.get("b")
    label_a = str(a.get("label", "a")) if isinstance(a, dict) else "a"
    label_b = str(b.get("label", "b")) if isinstance(b, dict) else "b"
    out = ["<section><h2>Timeline divergence</h2>"]
    for pair in pairs[:_MAX_SERIES]:
        name = (
            pair["label_a"] if pair["label_a"] == pair["label_b"]
            else f"{pair['label_a']} vs {pair['label_b']}"
        )
        day = pair.get("first_divergence_day")
        day_text = (
            f"first significant divergence at day {day}"
            if day is not None else "no significant divergence"
        )
        out.append(
            f'<p class="meta">{_esc(name)} — layout score, both runs '
            f"({_esc(day_text)})</p>"
        )
        out.append(
            _line_chart(
                [
                    (f"{label_a}: {pair['label_a']}", pair.get("score_a", [])),
                    (f"{label_b}: {pair['label_b']}", pair.get("score_b", [])),
                ],
                y_label="layout score",
            )
        )
        divergence = pair.get("score_divergence")
        if divergence:
            out.append(
                f'<p class="meta">{_esc(name)} — score divergence '
                f"(b &#8722; a)</p>"
            )
            out.append(
                _line_chart(
                    [("b - a", divergence)],
                    y_label="score delta", height=120,
                )
            )
        occupancy = pair.get("occupancy_delta")
        if isinstance(occupancy, dict):
            out.append(
                f'<p class="meta">{_esc(name)} — per-CG occupancy delta '
                f"(blue = b fuller, orange = a fuller)</p>"
            )
            out.append(
                _signed_heatmap_chart(
                    occupancy.get("days", []),
                    occupancy.get("matrix", []),
                    caption=f"{name} occupancy delta heatmap",
                )
            )
    if len(pairs) > _MAX_SERIES:
        out.append(
            f'<p class="note">(+{len(pairs) - _MAX_SERIES} more label '
            f"pairs folded)</p>"
        )
    out.append("</section>")
    return "".join(out)


def _diff_histograms_section(
    document: Dict[str, object], cap: int = 8
) -> str:
    panels: List[Dict[str, object]] = []
    for section_key in ("metrics", "disktrace"):
        section = document.get(section_key)
        section = section if isinstance(section, dict) else {}
        histograms = section.get("histograms")
        if isinstance(histograms, list):
            panels.extend(h for h in histograms if isinstance(h, dict))
    panels = [
        h for h in panels
        if any(v for _, v in h.get("bucket_deltas", []))  # type: ignore[union-attr]
    ]
    if not panels:
        return ""
    out = ["<section><h2>Distribution shifts (b &#8722; a)</h2>"]
    for h in panels[:cap]:
        name = str(h.get("name", "?"))
        base_q = h.get("baseline_quantiles")
        cur_q = h.get("current_quantiles")
        base_q = base_q if isinstance(base_q, dict) else {}
        cur_q = cur_q if isinstance(cur_q, dict) else {}
        quantiles = " · ".join(
            f"{key} {_nice(base_q.get(key))} &#8594; {_nice(cur_q.get(key))}"
            for key in ("p50", "p90", "p99")
            if base_q.get(key) is not None or cur_q.get(key) is not None
        )
        out.append(
            f'<p class="meta"><code>{_esc(name)}</code>'
            f"{' — ' + quantiles if quantiles else ''}</p>"
        )
        out.append(
            _signed_bar_chart(
                [(bound, float(v)) for bound, v in h.get("bucket_deltas", [])],  # type: ignore[union-attr]
                caption=f"{name} bucket deltas",
            )
        )
    if len(panels) > cap:
        out.append(
            f'<p class="note">(+{len(panels) - cap} more shifted '
            f"distributions)</p>"
        )
    out.append("</section>")
    return "".join(out)


def _diff_placement_section(document: Dict[str, object]) -> str:
    placement = document.get("placement")
    placement = placement if isinstance(placement, dict) else {}
    occupancy = placement.get("occupancy_delta")
    if not isinstance(occupancy, list) or not occupancy:
        return ""
    return (
        "<section><h2>Placement occupancy delta "
        "(b &#8722; a, final images)</h2>"
        + _signed_bar_chart(
            [(i, float(v)) for i, v in enumerate(occupancy)],
            caption="per-CG occupancy delta",
        )
        + "</section>"
    )


#: Summary keys distilled from ``--backend ssd`` runs (see
#: :func:`repro.obs.store.summarize_manifest`), in panel order.
_SSD_SUMMARY_KEYS = (
    ("write_amplification", "write amplification"),
    ("flash_erases", "block erases"),
    ("gc_moved_pages", "GC pages migrated"),
    ("ssd_throughput_mb_s", "device throughput (MB/s)"),
)


def _diff_ssd_section(document: Dict[str, object]) -> str:
    """Flash-substrate panel: WA / erase-wear values and deltas, shown
    whenever either side recorded SSD summary numbers (a disk-vs-ssd
    diff still shows the flash side's wear, with no classified delta)."""
    summary = document.get("summary")
    summary = summary if isinstance(summary, dict) else {}
    ssd = summary.get("ssd")
    ssd = ssd if isinstance(ssd, dict) else {}
    side_a = ssd.get("a") if isinstance(ssd.get("a"), dict) else {}
    side_b = ssd.get("b") if isinstance(ssd.get("b"), dict) else {}
    deltas = document.get("deltas")
    deltas = deltas if isinstance(deltas, list) else []
    by_name = {
        str(r.get("name")): r
        for r in deltas
        if isinstance(r, dict) and r.get("section") == "summary"
    }
    rows = []
    for key, title in _SSD_SUMMARY_KEYS:
        va = side_a.get(key)
        vb = side_b.get(key)
        if va is None and vb is None:
            continue
        r = by_name.get(key)
        if r is not None:
            delta = r.get("delta")
            sign = (
                "+" if isinstance(delta, (int, float)) and delta >= 0 else ""
            )
            delta_cell = f"{sign}{_nice(delta)}"
            label_cell = (
                f'<span class="lab lab-{_esc(r.get("label"))}">'
                f"{_esc(r.get('label'))}</span>"
            )
        else:
            delta_cell = "-"
            label_cell = ""
        rows.append(
            f"<tr><td>{_esc(title)}</td>"
            f'<td class="num">{_nice(va) if va is not None else "-"}</td>'
            f'<td class="num">{_nice(vb) if vb is not None else "-"}</td>'
            f'<td class="num">{delta_cell}</td>'
            f"<td>{label_cell}</td></tr>"
        )
    if not rows:
        return ""
    return (
        "<section><h2>Flash substrate (FTL)</h2><table>"
        '<tr><th>metric</th><th class="num">a</th><th class="num">b</th>'
        '<th class="num">delta</th><th></th></tr>'
        f"{''.join(rows)}</table>"
        '<p class="note">write amplification = flash page programs / '
        "host pages written; erases and migrations are the GC traffic "
        "behind it.</p></section>"
    )


def _diff_config_section(document: Dict[str, object]) -> str:
    meta = document.get("meta")
    meta = meta if isinstance(meta, dict) else {}
    out: List[str] = []
    for key, title in (
        ("config", "Config changes"),
        ("environment", "Environment changes"),
    ):
        block = meta.get(key)
        block = block if isinstance(block, dict) else {}
        changed = block.get("changed")
        changed = changed if isinstance(changed, dict) else {}
        only_a = block.get("only_a") or []
        only_b = block.get("only_b") or []
        if not changed and not only_a and not only_b:
            continue
        rows = "".join(
            f"<tr><td><code>{_esc(name)}</code></td>"
            f"<td>{_esc(_nice(vals[0]))}</td><td>{_esc(_nice(vals[1]))}</td>"
            f"</tr>"
            for name, vals in sorted(changed.items())
        )
        notes = []
        if only_a:
            notes.append("only in a: " + ", ".join(map(str, only_a)))
        if only_b:
            notes.append("only in b: " + ", ".join(map(str, only_b)))
        note = (
            f'<p class="note">{_esc("; ".join(notes))}</p>' if notes else ""
        )
        table = (
            f"<table><tr><th>key</th><th>a</th><th>b</th></tr>{rows}</table>"
            if rows else ""
        )
        out.append(f"<section><h2>{title}</h2>{table}{note}</section>")
    return "".join(out)


def build_diff_report(document: Dict[str, object]) -> str:
    """``repro-ffs diff --html``: one ``repro.diff/v1`` document as a
    self-contained side-by-side page."""
    sections = [
        _diff_header_section(document),
        _diff_deltas_section(document),
        _diff_ssd_section(document),
        _diff_timeline_section(document),
        _diff_histograms_section(document),
        _diff_placement_section(document),
        _diff_config_section(document),
    ]
    body = "".join(s for s in sections if s)
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        '<meta name="viewport" content="width=device-width, initial-scale=1">\n'
        "<title>repro run diff</title>\n"
        f"<style>{_CSS}</style></head>\n"
        f"<body>{body}</body></html>\n"
    )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def build_report(
    manifest: Dict[str, object],
    events: Optional[Sequence[Dict[str, object]]] = None,
    spans: Optional[Sequence[Dict[str, object]]] = None,
    compare_manifest: Optional[Dict[str, object]] = None,
    compare_events: Optional[Sequence[Dict[str, object]]] = None,
    disk_trace: Optional[Sequence[Dict[str, object]]] = None,
    runs: Optional[Sequence[Dict[str, object]]] = None,
) -> str:
    """Render one run (optionally versus a second) as a single HTML page."""
    events, events_dropped = obs_events.split_truncation(events or [])
    spans = list(spans or [])
    compare_events, _ = obs_events.split_truncation(compare_events or [])
    command = manifest.get("command", "run")
    sections = [
        _header_section(manifest, compare=compare_manifest is not None),
    ]
    if compare_manifest is not None:
        sections.append(_compare_section(manifest, compare_manifest))
    sections.append(_timeline_section(events, compare_events))
    sections.append(_heatmap_section(events))
    sections.append(_disktrace_section(list(disk_trace or [])))
    sections.append(_histograms_section(manifest))
    sections.append(_timings_section(manifest))
    sections.append(_span_tree_section(spans))
    sections.append(_profile_section(manifest))
    sections.append(_event_summary_section(events, dropped=events_dropped))
    sections.append(_history_section(list(runs or [])))
    body = "".join(s for s in sections if s)
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        '<meta name="viewport" content="width=device-width, initial-scale=1">\n'
        f"<title>{_esc(f'repro run report — {command}')}</title>\n"
        f"<style>{_CSS}</style></head>\n"
        f"<body>{body}</body></html>\n"
    )


def report_from_files(
    manifest_path: str,
    events_path: Optional[str] = None,
    trace_path: Optional[str] = None,
    compare_manifest_path: Optional[str] = None,
    compare_events_path: Optional[str] = None,
    disk_trace_path: Optional[str] = None,
    runs_dir: Optional[str] = None,
) -> str:
    """Load the artifacts the CLI names and build the report HTML."""
    from repro.obs.manifest import RunManifest
    from repro.obs.store import RunStore

    def load_rows(path: Optional[str]) -> List[Dict[str, object]]:
        if not path:
            return []
        with open(path) as fp:
            return obs_events.read_jsonl(fp)

    with open(manifest_path) as fp:
        manifest = RunManifest.load(fp).to_dict()
    compare_manifest = None
    if compare_manifest_path:
        with open(compare_manifest_path) as fp:
            compare_manifest = RunManifest.load(fp).to_dict()
    runs: List[Dict[str, object]] = []
    if runs_dir is not None:
        runs = RunStore(runs_dir).runs()
    return build_report(
        manifest,
        events=load_rows(events_path),
        spans=load_rows(trace_path),
        compare_manifest=compare_manifest,
        compare_events=load_rows(compare_events_path),
        disk_trace=load_rows(disk_trace_path),
        runs=runs,
    )
