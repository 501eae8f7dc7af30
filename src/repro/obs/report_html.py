"""Self-contained HTML run reports: ``repro-ffs report``.

Renders one run file (``--run``: manifest header, span, event and disk
rows, metrics) into a single HTML file a reader can open offline
instead of replaying ten simulated months: inline-SVG sparklines of the
Figure 1/2 layout-score curves (from ``day_sample`` events), bucket
histograms straight from the manifest's ``Histogram`` snapshots, the
disk rows' locality histograms, the span tree with wall and simulated
time, per-experiment wall times, ``--profile`` attribution tables, and
run-registry trend lines.  A second run file (``--compare``) overlays
its curves for original-vs-realloc style comparisons.

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
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Sequence,
    Tuple,
)

from repro.obs import events as obs_events

if TYPE_CHECKING:
    from repro.obs.heatmap import DaySample
    from repro.obs.manifest import RunManifest
    from repro.obs.runfile import Run

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


# ----------------------------------------------------------------------
# Page vocabulary: every view is a page of sections built from these
# ----------------------------------------------------------------------


def _page(title: str, *sections: str) -> str:
    """The one self-contained page shell every view renders into; empty
    sections are skipped."""
    body = "".join(s for s in sections if s)
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        '<meta name="viewport" content="width=device-width, initial-scale=1">\n'
        f"<title>{_esc(title)}</title>\n"
        f"<style>{_CSS}</style></head>\n"
        f"<body>{body}</body></html>\n"
    )


def _header(title: str, *parts: str) -> str:
    return f"<header><h1>{title}</h1>{''.join(parts)}</header>"


def _section(title: str, *parts: str) -> str:
    """One ``<section>``, under an ``<h2>`` when ``title`` is given.

    Titles, meta and note text are raw HTML (some carry ``<code>`` or
    entities), so callers escape what is dynamic in them."""
    head = f"<h2>{title}</h2>" if title else ""
    return f"<section>{head}{''.join(parts)}</section>"


def _meta(text: str) -> str:
    return f'<p class="meta">{text}</p>'


def _note(text: str) -> str:
    return f'<p class="note">{text}</p>'


def _folded(extra: int, what: str) -> str:
    """The note under a capped list: ``(+N more <what>)``, or nothing."""
    return _note(f"(+{extra} more {what})") if extra > 0 else ""


#: Cell markup per column style: ``""`` plain, ``num`` right-aligned,
#: ``code`` monospace, ``lab`` a noise/notable/regression badge (empty
#: for an empty value), ``bar`` a timings bar the value's pixels wide.
_CELLS = {
    "": "<td>{}</td>",
    "num": '<td class="num">{}</td>',
    "code": "<td><code>{}</code></td>",
    "lab": '<td><span class="lab lab-{0}">{0}</span></td>',
    "bar": '<td><span class="bar" style="width:{}px"></span></td>',
}


def _table(
    columns: Sequence[Tuple[str, str]], rows: Iterable[Sequence[object]]
) -> str:
    """``(header, style)`` columns over rows of one value per column,
    every value escaped: the shape
    :func:`repro.analysis.report.render_table` prints as text."""
    head = "".join(
        ('<th class="num">' if style == "num" else "<th>") + f"{_esc(h)}</th>"
        for h, style in columns
    )
    body = "".join(
        "<tr>" + "".join(
            _CELLS[style].format(_esc(value)) if value or style != "lab"
            else "<td></td>"
            for (_, style), value in zip(columns, row)
        ) + "</tr>"
        for row in rows
    )
    return f"<table><tr>{head}</tr>{body}</table>"


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


#: Padding (left, right, top, bottom) around every bar strip's plot.
_BAR_PAD = (44, 8, 6, 20)


def _svg_open(width: int, height: int, caption: str) -> str:
    return (
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" aria-label="{_esc(caption)}">'
    )


def _bound_label(bound: object) -> str:
    return "+inf" if bound == "+inf" else _nice(bound)


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
        return _note("(no samples)")
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

    parts = [_svg_open(width, height, y_label)]
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


def _bar_chart(
    caption: str,
    n: int,
    mark: Callable[[int, float, float], str],
    axis_y: str,
    scale: Sequence[Tuple[str, str]],
    width: int,
    height: int,
    bounds: Optional[Sequence[object]] = None,
    gap: int = 2,
    min_bar_w: float = 2.0,
) -> str:
    """The one bar-strip renderer: ``n`` equal bars across the plot, bar
    ``i`` drawn by ``mark(i, x, bar_w)`` (empty for no bar), an axis
    rule at ``axis_y`` with ``(y, text)`` scale labels at its left, and
    tick labels under the bars — about twelve bucket bounds (always the
    last) when ``bounds`` are given, else the first and last group."""
    pad_l, pad_r, _, _ = _BAR_PAD
    bar_w = max(min_bar_w, (width - pad_l - pad_r - gap * (n - 1)) / n)
    every = max(1, (n + 11) // 12)

    def tick(i: int, text: str) -> str:
        x = pad_l + i * (bar_w + gap)
        return (
            f'<text x="{x + bar_w / 2:.1f}" y="{height - 5}" '
            f'text-anchor="middle">{_esc(text)}</text>'
        )

    parts = [
        _svg_open(width, height, caption),
        f'<line x1="{pad_l}" y1="{axis_y}" x2="{width - pad_r}" '
        f'y2="{axis_y}" stroke="var(--grid)" stroke-width="1"/>',
    ]
    parts += [
        f'<text x="{pad_l - 6}" y="{y}" text-anchor="end">{text}</text>'
        for y, text in scale
    ]
    for i in range(n):
        parts.append(mark(i, pad_l + i * (bar_w + gap), bar_w))
        if bounds is not None and (i % every == 0 or i == n - 1):
            parts.append(tick(i, _bound_label(bounds[i])))
    if bounds is None:
        parts += [tick(i, f"cg {i}") for i in (0, n - 1)]
    parts.append("</svg>")
    return "".join(parts)


def _histogram_chart(
    name: str, data: Dict[str, Any], width: int = 660, height: int = 120
) -> str:
    """Inline-SVG bar chart of one Histogram snapshot's buckets."""
    buckets: List[Tuple[object, int]] = [
        (bound, int(count)) for bound, count in data["buckets"]
    ]
    if not buckets:
        return _note("(no observations)")
    pad_t, plot_h = _BAR_PAD[2], height - _BAR_PAD[2] - _BAR_PAD[3]
    base = pad_t + plot_h
    peak = max(count for _, count in buckets)

    def mark(i: int, x: float, bar_w: float) -> str:
        bound, count = buckets[i]
        if not count:
            return ""
        h = max(1.0, plot_h * count / peak)
        y = base - h
        r = min(2.0, bar_w / 2, h)
        # Rounded top corners only; the base stays anchored.
        return (
            f'<path d="M{x:.1f},{base:.1f} '
            f'L{x:.1f},{y + r:.1f} Q{x:.1f},{y:.1f} {x + r:.1f},{y:.1f} '
            f'L{x + bar_w - r:.1f},{y:.1f} '
            f'Q{x + bar_w:.1f},{y:.1f} {x + bar_w:.1f},{y + r:.1f} '
            f'L{x + bar_w:.1f},{base:.1f} Z" fill="var(--accent)">'
            f"<title>&#8804; {_esc(_bound_label(bound))}: {count:,} "
            f"observations</title></path>"
        )

    return _bar_chart(
        name, len(buckets), mark, axis_y=f"{base}",
        scale=[(f"{pad_t + 8}", _nice(peak))], width=width, height=height,
        bounds=[bound for bound, _ in buckets],
    )


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
        return _note("(no buckets)")
    peak = max(abs(v) for v in values) or 1.0
    pad_t, plot_h = _BAR_PAD[2], height - _BAR_PAD[2] - _BAR_PAD[3]
    zero_y = pad_t + plot_h / 2.0
    half = plot_h / 2.0 - 2

    def mark(i: int, x: float, bar_w: float) -> str:
        bound, value = pairs[i]
        if not value:
            return ""
        h = max(1.0, half * abs(float(value)) / peak)
        color = "var(--series-1)" if value > 0 else "var(--series-2)"
        y = zero_y - h if value > 0 else zero_y
        return (
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w:.1f}" '
            f'height="{h:.1f}" fill="{color}">'
            f"<title>{_esc(_bound_label(bound))}: "
            f"{'+' if value > 0 else ''}{_nice(value)}</title></rect>"
        )

    return _bar_chart(
        caption, len(pairs), mark, axis_y=f"{zero_y:.1f}",
        scale=[(f"{pad_t + 8}", f"+{_nice(peak)}"),
               (f"{pad_t + plot_h:.1f}", f"-{_nice(peak)}")],
        width=width, height=height, bounds=[bound for bound, _ in pairs],
    )


# ----------------------------------------------------------------------
# Sections
# ----------------------------------------------------------------------


def _header_section(manifest: RunManifest, compare: bool) -> str:
    command = manifest.command
    config_text = " ".join(
        f"{key}={value}"
        for key, value in sorted(manifest.config.items())
        if value is not None and not isinstance(value, (dict, list))
    )
    env = manifest.environment
    title = f"repro run report — {command}{' (comparison)' if compare else ''}"
    return _header(
        _esc(title),
        _meta(f"repro-ffs {_esc(command)} {_esc(config_text)}"),
        _meta(f"wall {_esc(_fmt_wall(manifest.wall_seconds))} · python "
              f"{_esc(env.get('python', '?'))} on "
              f"{_esc(env.get('platform', '?'))} · schema "
              f"{_esc(manifest.schema)}"),
    )


def _day_series(
    samples: Dict[str, List[DaySample]], field: str, suffix: str = ""
) -> List[Tuple[str, List[Tuple[float, float]]]]:
    """Per-label (day, field) series from pivoted day samples, in
    first-seen label order."""
    return [
        (label + suffix,
         [(float(s.day), float(getattr(s, field))) for s in rows])
        for label, rows in samples.items()
    ]


def _timeline_section(
    events: Sequence[Dict[str, object]],
    compare_events: Sequence[Dict[str, object]],
) -> str:
    from repro.obs.heatmap import day_samples

    samples = day_samples(events)
    compare = day_samples(compare_events)
    if not samples and not compare:
        return ""

    def chart(field: str, y_label: str, height: int) -> str:
        series = _day_series(samples, field)
        series += _day_series(compare, field, suffix=" (compare)")
        return _line_chart(series, y_label=y_label, height=height)

    return _section(
        "Layout score by simulated day",
        chart("layout_score", "layout score", 170),
        "<h2>Utilization by simulated day</h2>",
        chart("utilization", "utilization", 120),
    )


#: One heatmap cell's ``(fill, fill-opacity, tooltip value)``, or None
#: to leave the cell blank.
_Shade = Callable[[float], Optional[Tuple[str, float, str]]]


def _heatmap_svg(
    days: Sequence[int],
    matrix: Sequence[Sequence[float]],
    ncg: int,
    caption: str,
    shade: _Shade,
    width: int = 660,
    height: int = 150,
    max_cols: int = 100,
) -> str:
    """Lay out a day × CG grid of ``ncg`` rows, one cell per (day,
    group) shaded by ``shade``.  Long agings are column-sampled down to
    ``max_cols`` days — a trend surface, not a lossless archive."""
    stride = max(1, -(-len(days) // max_cols))
    cols = list(range(0, len(days), stride))
    if cols[-1] != len(days) - 1:
        cols.append(len(days) - 1)
    pad_l, pad_r, pad_t, pad_b = 44, 8, 6, 20
    plot_w, plot_h = width - pad_l - pad_r, height - pad_t - pad_b
    cell_w = plot_w / len(cols)
    cell_h = plot_h / ncg
    parts = [
        _svg_open(width, height, caption)
        + f'<text x="{pad_l - 6}" y="{pad_t + 8}" text-anchor="end">cg 0</text>'
        f'<text x="{pad_l - 6}" y="{pad_t + plot_h:.1f}" text-anchor="end">'
        f"cg {ncg - 1}</text>"
    ]
    for i, col in enumerate(cols):
        row = matrix[col]
        x = pad_l + i * cell_w
        for cg in range(min(ncg, len(row))):
            cell = shade(float(row[cg]))
            if cell is None:
                continue
            fill, opacity, text = cell
            y = pad_t + cg * cell_h
            parts.append(
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{cell_w:.2f}" '
                f'height="{cell_h:.2f}" fill="{fill}" '
                f'fill-opacity="{opacity:.3f}">'
                f"<title>day {days[col]}, cg {cg}: {text}</title></rect>"
            )
    for col_index in (0, len(cols) - 1):
        x = pad_l + (col_index + 0.5) * cell_w
        parts.append(
            f'<text x="{x:.1f}" y="{height - 5}" text-anchor="middle">'
            f"day {days[cols[col_index]]}</text>"
        )
    parts.append("</svg>")
    return "".join(parts)


def _heatmap_chart(
    days: Sequence[int], matrix: Sequence[Sequence[float]], caption: str
) -> str:
    """Inline-SVG day × CG heatmap: one shaded cell per (day, group).

    Cell intensity is carried in ``fill-opacity`` over the accent color,
    so the map needs no gradient resources and adapts to dark mode like
    every other chart.
    """
    if not matrix or not matrix[0]:
        return _note("(no per-group samples)")

    def shade(value: float) -> Optional[Tuple[str, float, str]]:
        value = max(0.0, min(1.0, value))
        if value < 0.005:
            return None
        return "var(--accent)", value, f"{value:.2f}"

    return _heatmap_svg(days, matrix, len(matrix[0]), caption, shade)


def _signed_heatmap_chart(
    days: Sequence[int], matrix: Sequence[Sequence[float]], caption: str
) -> str:
    """Signed day × CG delta heatmap: run-b-fuller cells in the primary
    series color, run-a-fuller cells in the secondary, intensity in
    ``fill-opacity`` scaled to the matrix's own peak |delta|."""
    if not matrix or not matrix[0]:
        return _note("(no per-group samples on both sides)")
    peak = max((abs(v) for row in matrix for v in row), default=0.0) or 1.0

    def shade(value: float) -> Optional[Tuple[str, float, str]]:
        opacity = min(1.0, abs(value) / peak)
        if opacity < 0.01:
            return None
        fill = "var(--series-1)" if value > 0 else "var(--series-2)"
        return fill, opacity, f"{'+' if value > 0 else ''}{value:.3f}"

    ncg = max(len(row) for row in matrix)
    return _heatmap_svg(days, matrix, ncg, caption, shade)


def _heatmap_section(events: Sequence[Dict[str, object]]) -> str:
    """Per-CG occupancy and fragmentation heatmaps from day samples."""
    from repro.obs.heatmap import heatmap_series

    all_series = heatmap_series(events)
    if not all_series:
        return ""
    out: List[str] = []
    for series in all_series[:_MAX_SERIES]:
        for what, matrix, legend in (
            ("occupancy", series.occupancy,
             "occupancy (darker = fuller group)"),
            ("fragmentation", series.frag, "free-space fragmentation "
             "(darker = more shattered free space)"),
        ):
            out += [
                _meta(f"{_esc(series.label)} — {legend}"),
                _heatmap_chart(series.days, matrix,
                               caption=f"{series.label} {what} heatmap"),
            ]
    return _section(
        "Layout heatmaps (cylinder group × day)", *out,
        _folded(len(all_series) - _MAX_SERIES, "series folded"),
    )


def _disktrace_section(trace_rows: Sequence[Dict[str, object]]) -> str:
    """Request anatomy panels from a run's ``disk`` rows."""
    from repro.obs.export import bucket_quantile
    from repro.obs.heatmap import (
        inter_request_histogram,
        seek_distance_histogram,
        trace_summary,
    )

    if not trace_rows:
        return ""
    summary = trace_summary(trace_rows)
    dropped = summary["dropped"]
    out = [
        _table([("requests", ""), ("count", "num")], [
            (label, _nice(summary[key])) for label, key in (
                ("requests", "requests"), ("reads", "reads"),
                ("writes", "writes"), ("lost rotations", "lost_rotations"),
                ("track-buffer hits", "buffer_hits"),
                ("total service (ms)", "service_ms"),
            )
        ]),
        _note(f"{dropped:,} requests dropped at the trace bound.")
        if dropped else "",
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
        out += [
            _meta(f"{_esc(title)} — count {data['count']:,}, {quantiles}"),
            _histogram_chart(title, data),
        ]
    return _section("Disk I/O trace", *out)


def _history_section(runs: List[Run]) -> str:
    """Per-policy trend lines across the recorded run registry."""
    from repro.obs.store import summary_series

    if not runs:
        return ""
    series = summary_series(runs)
    scores = [
        (name[len("layout_score["):-1], points)
        for name, points in series.items()
        if name.startswith("layout_score[")
    ]
    throughput = series.get("throughput_mb_s", [])
    out: List[str] = []
    if scores:
        out += [
            _meta("final layout score per recorded run"),
            _line_chart(scores, y_label="final layout score",
                        x_label="recorded run #"),
        ]
    if len(throughput) > 1:
        out += [
            _meta("aggregate disk throughput (MB/s)"),
            _line_chart([("throughput", throughput)], y_label="MB/s",
                        x_label="recorded run #", height=120),
        ]
    if not out:
        out = [_note("(recorded runs carry no layout or throughput "
                     "summaries)")]
    return _section(f"Run history ({len(runs)} recorded)", *out)


def _event_summary_section(
    events: Sequence[Dict[str, object]], dropped: int = 0
) -> str:
    if not events:
        return ""
    counts = sorted(obs_events.count_types(events).items())
    return _section(
        "Event log",
        _table([("event type", "code"), ("count", "num")],
               [(kind, f"{count:,}") for kind, count in counts]),
        _note(f"{dropped:,} events dropped at the log bound.")
        if dropped else "",
    )


def _histograms_section(manifest: RunManifest, cap: int = 8) -> str:
    histograms = [
        (name, data)
        for name, data in sorted(manifest.metrics.items())
        if data["type"] == "histogram" and data["count"]
    ]
    if not histograms:
        return ""
    out: List[str] = []
    for name, data in histograms[:cap]:
        out += [
            _meta(
                f"<code>{_esc(name)}</code> — count {data['count']:,}, "
                f"mean {_nice(data['mean'])}, min {_nice(data['min'])}, "
                f"max {_nice(data['max'])}"
            ),
            _histogram_chart(name, data),
        ]
    return _section(
        "Distributions", *out,
        _folded(len(histograms) - cap, "histograms in the manifest"),
    )


def _span_tree_section(
    spans: Sequence[Dict[str, Any]], cap: int = 1500
) -> str:
    if not spans:
        return ""
    children: Dict[int, List[Dict[str, Any]]] = {}
    ids = {row["seq"] for row in spans}
    roots: List[Dict[str, Any]] = []
    for row in spans:
        parent = row.get("parent_id")
        if parent is None or parent not in ids:
            roots.append(row)
        else:
            children.setdefault(parent, []).append(row)
    emitted = [0]

    def one(row: Dict[str, Any]) -> str:
        wall = _fmt_wall(row.get("wall_elapsed_s"))
        sim = row.get("sim_elapsed")
        sim_text = f" · sim {_nice(sim)}" if sim is not None else ""
        attrs = row.get("attrs") or {}
        attr_text = ""
        if attrs:
            pairs = list(attrs.items())[:3]
            attr_text = " · " + ", ".join(
                f"{_esc(k)}={_esc(_nice(v))}" for k, v in pairs
            )
        return (
            f"<strong>{_esc(row.get('name', '?'))}</strong> "
            f'<span class="t">{_esc(wall)}{sim_text}{attr_text}</span>'
        )

    def render(nodes: List[Dict[str, Any]]) -> str:
        nodes = sorted(nodes, key=lambda r: r["seq"])
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
            kids = children.get(row["seq"], [])
            sub = render(kids) if kids else ""
            items.append(f"<li>{one(row)}{sub}</li>")
            index += 1
        return f'<ul class="tree">{"".join(items)}</ul>'

    return _section("Span tree", render(roots))


def _timings_section(manifest: RunManifest) -> str:
    timings = manifest.timings
    if not timings:
        return ""
    peak = max(float(v) for v in timings.values()) or 1.0
    slowest = sorted(timings.items(), key=lambda kv: (-float(kv[1]), kv[0]))
    return _section("Experiment wall times", _table(
        [("experiment", "code"), ("wall", "num"), ("", "bar")],
        [
            (name, _fmt_wall(float(wall)),
             max(2, round(180 * float(wall) / peak)))
            for name, wall in slowest
        ],
    ))


def _profile_section(manifest: RunManifest) -> str:
    if not manifest.profile:
        return ""
    columns = [("function", "code"), ("ncalls", "num"),
               ("tottime (s)", "num"), ("cumtime (s)", "num")]
    out: List[str] = []
    for phase, rows in manifest.profile.items():
        out += [
            _meta(f"<code>{_esc(phase)}</code>"),
            _table(columns, [
                (row.get("function"), row.get("ncalls"),
                 _nice(row.get("tottime_s")), _nice(row.get("cumtime_s")))
                for row in rows
            ]),
        ]
    return _section("Profile (top offenders per phase)", *out)


def _compare_section(manifest: RunManifest, compare: RunManifest) -> str:
    return _section("Compared runs", _table(
        [("", ""), ("command", ""), ("preset", ""), ("wall", "num")],
        [
            (tag, f"repro-ffs {m.command}", m.config.get("preset", "?"),
             _fmt_wall(m.wall_seconds))
            for tag, m in (("primary", manifest), ("compare", compare))
        ],
    ))


def _cg_bar_chart(
    groups: Sequence[Dict[str, Any]],
    field: str,
    caption: str,
    peak: Optional[float] = None,
    width: int = 660,
    height: int = 110,
) -> str:
    """Per-cylinder-group bar strip for inspect documents."""
    values = [float(g[field]) for g in groups]
    if not values:
        return _note("(no groups)")
    top = peak if peak is not None else (max(values) or 1.0)
    top = top or 1.0
    pad_t, plot_h = _BAR_PAD[2], height - _BAR_PAD[2] - _BAR_PAD[3]

    def mark(i: int, x: float, bar_w: float) -> str:
        value = values[i]
        h = plot_h * min(1.0, value / top) if value > 0 else 0.0
        if not h:
            return ""
        return (
            f'<rect x="{x:.1f}" y="{pad_t + plot_h - h:.1f}" '
            f'width="{bar_w:.1f}" height="{h:.1f}" fill="var(--accent)">'
            f"<title>cg {i}: {_nice(value)}</title></rect>"
        )

    return _bar_chart(
        caption, len(values), mark, axis_y=f"{pad_t + plot_h}",
        scale=[(f"{pad_t + 8}", _nice(top))], width=width, height=height,
        gap=1, min_bar_w=1.5,
    )


def _inspect_section(document: Dict[str, Any]) -> str:
    """One placement document: its headline, three per-group strips and
    its largest files."""
    groups = document["groups"]
    free = document["freespace"]
    files = document["files"]
    largest = [
        _meta(f"largest files (top {len(files)} of "
              f"{_nice(document['files_total'])})"),
        _table(
            [(header, "num") for header in (
                "ino", "size (bytes)", "blocks", "home cg", "cg span",
                "cyl span", "score",
            )],
            [
                (f["ino"], _nice(f["size"]), _nice(f["blocks"]), f["home_cg"],
                 _nice(f["cg_span"]), _nice(f["cyl_span"]),
                 _nice(f["layout_score"]))
                for f in files
            ],
        ),
    ] if files else []
    return _section(
        _esc(document["label"]),
        _meta(
            f"policy {_esc(document['policy'])} · "
            f"utilization {_nice(document['utilization'])} · "
            f"aggregate layout score "
            f"{_nice(document['aggregate_layout_score'])} · "
            f"{_nice(free['n_runs'])} free runs, largest "
            f"{_nice(free['largest_run'])}"
        ),
        _meta("occupancy by cylinder group"),
        _cg_bar_chart(groups, "occupancy", "occupancy by group", peak=1.0),
        _meta("spill blocks by group (data homed elsewhere)"),
        _cg_bar_chart(groups, "spill_blocks", "spill blocks by group"),
        _meta("largest free run by group (blocks)"),
        _cg_bar_chart(groups, "largest_free_run", "largest free run by group"),
        *largest,
    )


def build_inspect_report(documents: Sequence[Dict[str, Any]]) -> str:
    """``repro-ffs inspect --html``: placement documents as one page."""
    labels = " vs ".join(_esc(d["label"]) for d in documents)
    return _page(
        "placement inspection",
        _header(
            f"placement inspection — {labels}",
            _meta(f"schema {_esc(documents[0]['schema'])}"),
        ),
        *[_inspect_section(document) for document in documents],
    )


def _diff_header_section(document: Dict[str, Any]) -> str:
    a, b, counts = document["a"], document["b"], document["counts"]
    badge = " ".join(
        f'<span class="lab lab-{kind}">{counts[kind]} {kind}</span>'
        for kind in ("regression", "notable", "noise")
    )
    return _header(
        _esc(f"run diff — {a['label']} vs {b['label']}"),
        _meta(f"schema {_esc(document['schema'])} · {badge}"),
    ) + _section("", _table(
        [("", ""), ("run", "code"), ("command", ""), ("preset", ""),
         ("policy", ""), ("backend", ""), ("wall", "num")],
        [
            (tag, side["label"], f"repro-ffs {side['command']}",
             side["preset"] or "-", side["policy"] or "-",
             side["backend"] or "-", _fmt_wall(side["wall_seconds"]))
            for tag, side in (("a", a), ("b", b))
        ],
    ))


def _signed(value: float) -> str:
    return f"{'+' if value >= 0 else ''}{_nice(value)}"


def _diff_deltas_section(document: Dict[str, Any]) -> str:
    deltas = document["deltas"]
    significant = [r for r in deltas if r["label"] != "noise"]
    if not significant:
        return _section("Significant deltas", _note(
            "none — the runs are equivalent under the classifier "
            f"({len(deltas)} comparisons, all noise)."
        ))

    def delta(r: Dict[str, Any]) -> str:
        rel = r["rel"]
        return _signed(r["delta"]) + (
            f" ({'+' if rel >= 0 else ''}{rel:.1%})" if rel is not None else ""
        )

    return _section(
        "Significant deltas",
        _table(
            [("", "lab"), ("section", ""), ("metric", "code"), ("a", "num"),
             ("b", "num"), ("delta", "num")],
            [
                (r["label"], r["section"], r["name"], _nice(r["baseline"]),
                 _nice(r["current"]), delta(r))
                for r in significant
            ],
        ),
        _note(
            f"{len(deltas) - len(significant)} further comparisons "
            "classified as noise."
        ),
    )


def _diff_timeline_section(document: Dict[str, Any]) -> str:
    from repro.obs.diff import pair_name

    pairs = document.get("timeline", {}).get("pairs", [])
    if not pairs:
        return ""
    label_a, label_b = document["a"]["label"], document["b"]["label"]
    out: List[str] = []
    for pair in pairs[:_MAX_SERIES]:
        name = pair_name(pair)
        day = pair["first_divergence_day"]
        day_text = (
            f"first significant divergence at day {day}"
            if day is not None else "no significant divergence"
        )
        out += [
            _meta(f"{_esc(name)} — layout score, both runs "
                  f"({_esc(day_text)})"),
            _line_chart([
                (f"{label_a}: {pair['label_a']}", pair["score_a"]),
                (f"{label_b}: {pair['label_b']}", pair["score_b"]),
            ], y_label="layout score"),
        ]
        if pair["score_divergence"]:
            out += [
                _meta(f"{_esc(name)} — score divergence (b &#8722; a)"),
                _line_chart([("b - a", pair["score_divergence"])],
                            y_label="score delta", height=120),
            ]
        occupancy = pair["occupancy_delta"]
        if occupancy is not None:
            out += [
                _meta(
                    f"{_esc(name)} — per-CG occupancy delta "
                    "(blue = b fuller, orange = a fuller)"
                ),
                _signed_heatmap_chart(
                    occupancy["days"], occupancy["matrix"],
                    caption=f"{name} occupancy delta heatmap",
                ),
            ]
    return _section(
        "Timeline divergence", *out,
        _folded(len(pairs) - _MAX_SERIES, "label pairs folded"),
    )


def _diff_histograms_section(
    document: Dict[str, Any], cap: int = 8
) -> str:
    panels = [
        h
        for section_key in ("metrics", "disktrace")
        for h in document.get(section_key, {}).get("histograms", [])
        if any(v for _, v in h["bucket_deltas"])
    ]
    if not panels:
        return ""
    out: List[str] = []
    for h in panels[:cap]:
        name = h["name"]
        base_q, cur_q = h["baseline_quantiles"], h["current_quantiles"]
        quantiles = " · ".join(
            f"{key} {_nice(base_q[key])} &#8594; {_nice(cur_q[key])}"
            for key in ("p50", "p90", "p99")
            if base_q[key] is not None or cur_q[key] is not None
        )
        out += [
            _meta(
                f"<code>{_esc(name)}</code>"
                f"{' — ' + quantiles if quantiles else ''}"
            ),
            _signed_bar_chart(
                [(bound, float(v)) for bound, v in h["bucket_deltas"]],
                caption=f"{name} bucket deltas",
            ),
        ]
    return _section(
        "Distribution shifts (b &#8722; a)", *out,
        _folded(len(panels) - cap, "shifted distributions"),
    )


def _diff_placement_section(document: Dict[str, Any]) -> str:
    occupancy = document.get("placement", {}).get("occupancy_delta")
    if not occupancy:
        return ""
    return _section(
        "Placement occupancy delta (b &#8722; a, final images)",
        _signed_bar_chart(
            [(i, float(v)) for i, v in enumerate(occupancy)],
            caption="per-CG occupancy delta",
        ),
    )


#: Summary keys distilled from ``--backend ssd`` runs (see
#: :func:`repro.obs.store.summarize_manifest`), in panel order.
_SSD_SUMMARY_KEYS = (
    ("write_amplification", "write amplification"),
    ("flash_erases", "block erases"),
    ("gc_moved_pages", "GC pages migrated"),
    ("ssd_throughput_mb_s", "device throughput (MB/s)"),
)


def _diff_ssd_section(document: Dict[str, Any]) -> str:
    """Flash-substrate panel: WA / erase-wear values and deltas, shown
    whenever either side recorded SSD summary numbers (a disk-vs-ssd
    diff still shows the flash side's wear, with no classified delta)."""
    ssd = document["summary"].get("ssd")
    if ssd is None:
        return ""
    by_name = {
        r["name"]: r for r in document["deltas"] if r["section"] == "summary"
    }
    rows = []
    for key, title in _SSD_SUMMARY_KEYS:
        va, vb = ssd["a"].get(key), ssd["b"].get(key)
        if va is None and vb is None:
            continue
        r = by_name.get(key)
        rows.append((
            title, _nice(va), _nice(vb),
            "-" if r is None else _signed(r["delta"]),
            "" if r is None else r["label"],
        ))
    return _section(
        "Flash substrate (FTL)",
        _table(
            [("metric", ""), ("a", "num"), ("b", "num"), ("delta", "num"),
             ("", "lab")],
            rows,
        ),
        _note(
            "write amplification = flash page programs / host pages "
            "written; erases and migrations are the GC traffic behind it."
        ),
    )


def _diff_config_section(document: Dict[str, Any]) -> str:
    out: List[str] = []
    for key, title in (
        ("config", "Config changes"),
        ("environment", "Environment changes"),
    ):
        block = document["meta"][key]
        changed = block["changed"]
        notes = "; ".join(
            f"only in {tag}: " + ", ".join(map(str, block[f"only_{tag}"]))
            for tag in "ab" if block[f"only_{tag}"]
        )
        if not changed and not notes:
            continue
        out.append(_section(
            title,
            _table(
                [("key", "code"), ("a", ""), ("b", "")],
                [
                    (name, _nice(vals[0]), _nice(vals[1]))
                    for name, vals in sorted(changed.items())
                ],
            ) if changed else "",
            _note(_esc(notes)) if notes else "",
        ))
    return "".join(out)


def build_diff_report(document: Dict[str, Any]) -> str:
    """``repro-ffs diff --html``: one ``repro.diff/v1`` document as a
    self-contained side-by-side page."""
    return _page(
        "repro run diff",
        _diff_header_section(document),
        _diff_deltas_section(document),
        _diff_ssd_section(document),
        _diff_timeline_section(document),
        _diff_histograms_section(document),
        _diff_placement_section(document),
        _diff_config_section(document),
    )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def build_report(
    run: Run,
    compare: Optional[Run] = None,
    runs: Optional[List[Run]] = None,
) -> str:
    """Render one run (optionally versus a second) as a single HTML page.

    Every input arrives through the run-file loader
    (:mod:`repro.obs.runfile`) or the run store, so the sections trust
    its shape."""
    manifest = run.manifest
    events, events_dropped = obs_events.split_truncation(run.events or [])
    spans, _ = obs_events.split_truncation(run.spans)
    compare_rows = compare.events if compare is not None else None
    compare_events, _ = obs_events.split_truncation(compare_rows or [])
    return _page(
        f"repro run report — {manifest.command}",
        _header_section(manifest, compare=compare is not None),
        _compare_section(manifest, compare.manifest)
        if compare is not None else "",
        _timeline_section(events, compare_events),
        _heatmap_section(events),
        _disktrace_section(list(run.disk or [])),
        _histograms_section(manifest),
        _timings_section(manifest),
        _span_tree_section(spans),
        _profile_section(manifest),
        _event_summary_section(events, dropped=events_dropped),
        _history_section(runs or []),
    )


def report_from_files(
    run_path: str,
    compare_path: Optional[str] = None,
    runs_dir: Optional[str] = None,
) -> str:
    """Load the run files the CLI names and build the report HTML."""
    from repro.obs.runfile import load_run
    from repro.obs.store import RunStore

    return build_report(
        load_run(run_path),
        load_run(compare_path) if compare_path else None,
        runs=[] if runs_dir is None else RunStore(runs_dir).runs(warn=True),
    )
