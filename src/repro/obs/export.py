"""Serialisation of telemetry artifacts: JSON, JSONL, and tables.

One captured run produces one JSONL run file (see
:mod:`repro.obs.runfile`); the JSON documents (``diff --json``, chaos
and inspect reports) share its encoder.  This module owns the encoding
so every producer (CLI, tests, examples) emits byte-compatible
artifacts, plus the inverse direction: rendering a captured metrics
snapshot back into the paper-style text tables that ``repro-ffs stats``
prints.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, TextIO

__all__ = [
    "write_json",
    "write_jsonl",
    "render_metrics",
    "bucket_quantile",
    "bucket_quantiles",
]


def write_json(fp: TextIO, obj: object) -> None:
    """Write ``obj`` as stable, human-diffable JSON."""
    json.dump(obj, fp, indent=2, sort_keys=True)
    fp.write("\n")


def write_jsonl(fp: TextIO, rows: Iterable[Dict[str, object]]) -> int:
    """Write one compact JSON object per line; returns the row count."""
    count = 0
    for row in rows:
        fp.write(json.dumps(row, separators=(",", ":"), sort_keys=True))
        fp.write("\n")
        count += 1
    return count


def render_metrics(snapshot: Dict[str, Dict[str, object]]) -> str:
    """Render a metrics snapshot as aligned text tables.

    Counters and gauges share one two-column table; histograms get a
    summary table with count/mean/min/max and the approximate median.
    """
    from repro.analysis.report import render_table

    blocks: List[str] = []
    scalars = [
        (name, _fmt_value(data["value"]), data["type"])
        for name, data in snapshot.items()
        if data["type"] in ("counter", "gauge")
    ]
    if scalars:
        blocks.append(
            render_table(
                ["metric", "value", "kind"], scalars, title="Counters and gauges"
            )
        )
    histograms = [
        (
            name,
            str(data["count"]),
            _fmt_value(data["mean"]),
            _fmt_value(data["min"]),
            _fmt_value(data["max"]),
            _fmt_value(bucket_quantile(data, 0.5)),
            _fmt_value(bucket_quantile(data, 0.9)),
            _fmt_value(bucket_quantile(data, 0.99)),
        )
        for name, data in snapshot.items()
        if data["type"] == "histogram"
    ]
    if histograms:
        blocks.append(
            render_table(
                ["histogram", "count", "mean", "min", "max",
                 "~p50", "~p90", "~p99"],
                histograms,
                title="Distributions",
            )
        )
    if not blocks:
        return "(no metrics captured)"
    return "\n\n".join(blocks)


def bucket_quantile(data: Dict[str, object], q: float) -> object:
    """Approximate ``q``-quantile from a histogram's stored buckets.

    Works on the :meth:`Histogram.to_dict` form (per-bucket counts
    keyed by upper bound, ``"+inf"`` last).  Interior quantiles return
    the upper bound of the bucket containing the rank — the usual
    histogram-quantile approximation; the ``+inf`` bucket and the
    extremes return the exact recorded min/max.  Returns None for an
    empty histogram.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    count = data.get("count", 0)
    if not count:
        return None
    if q == 0.0:
        return data.get("min")
    rank = q * count  # type: ignore[operator]
    seen = 0
    for bound, n in data.get("buckets", []):  # type: ignore[union-attr]
        seen += n
        if seen >= rank:
            return data.get("max") if bound == "+inf" else bound
    return data.get("max")


def bucket_quantiles(data: Dict[str, object]) -> Dict[str, object]:
    """The standard p50/p90/p99 triple every consumer summarises with.

    One call site for the three quantiles the CSV export, the run-store
    summaries, and the diff classifier all report, so they can never
    disagree on which quantiles "the" distribution summary means.
    """
    return {
        "p50": bucket_quantile(data, 0.5),
        "p90": bucket_quantile(data, 0.9),
        "p99": bucket_quantile(data, 0.99),
    }


def _fmt_value(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, str):
        return value
    if isinstance(value, float):
        if value and abs(value) < 0.01:
            return f"{value:.4g}"
        return f"{value:,.2f}".rstrip("0").rstrip(".")
    return f"{value:,}"
