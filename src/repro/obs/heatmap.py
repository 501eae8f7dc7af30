"""Layout heatmaps and locality histograms from captured telemetry.

The paper's placement story is two-dimensional: *which* cylinder group
holds the data (the x axis of fragmentation) and *when* during aging it
got there (the x axis of decay).  The ``day_sample`` events already
carry per-group occupancy and free-space fragmentation vectors at every
simulated day boundary; this module pivots those rows into dense
day × CG matrices for the HTML report's heatmap panels, and distils a
``--disk-trace`` capture into the two locality distributions the
ROADMAP's scheduler work needs: seek distance (cylinders travelled per
positioning seek) and inter-request distance (cylinder gap between
consecutive requests, whether or not a seek was paid).

Everything here is pure post-processing over already-captured rows —
no simulator state, no clocks — so it can run on any machine that has
the JSONL artifacts.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.obs.events import split_truncation
from repro.obs.metrics import Histogram

__all__ = [
    "HeatmapSeries",
    "heatmap_series",
    "seek_distance_histogram",
    "service_time_histogram",
    "inter_request_histogram",
    "trace_summary",
]


class HeatmapSeries:
    """One label's day × CG matrices, pivoted from day_sample rows."""

    def __init__(self, label: str) -> None:
        self.label = label
        self.days: List[int] = []
        #: Rows in day order; each row is the per-CG vector for that day.
        self.occupancy: List[List[float]] = []
        self.frag: List[List[float]] = []

    @property
    def ncg(self) -> int:
        return len(self.occupancy[0]) if self.occupancy else 0

    def add(self, day: int, occupancy: List[float], frag: List[float]) -> None:
        self.days.append(day)
        self.occupancy.append(occupancy)
        self.frag.append(frag)


def heatmap_series(
    events: Iterable[Dict[str, object]],
) -> List[HeatmapSeries]:
    """Pivot ``day_sample`` events into per-label heatmap matrices.

    Rows without the per-CG vectors (captures from before they existed,
    or hand-built fixtures) are skipped, so a report over an old event
    log simply renders no heatmap rather than failing.  Labels come out
    in first-appearance order, matching the line charts.
    """
    series: Dict[str, HeatmapSeries] = {}
    for row in events:
        if row.get("type") != "day_sample":
            continue
        occupancy = row.get("cg_occupancy")
        frag = row.get("cg_frag")
        if not isinstance(occupancy, list) or not isinstance(frag, list):
            continue
        label = str(row.get("label", ""))
        if label not in series:
            series[label] = HeatmapSeries(label)
        series[label].add(int(row.get("day", 0)), occupancy, frag)
    return list(series.values())


def _distance_buckets() -> List[float]:
    """Power-of-two cylinder-distance ladder out past any real seek."""
    return [float(2 ** i) for i in range(0, 13)]


def seek_distance_histogram(
    trace_rows: Iterable[Dict[str, object]],
) -> Optional[Dict[str, object]]:
    """Distribution of cylinders travelled per *paid* seek.

    Only requests that actually moved the head (``seek_ms > 0``) count;
    buffer hits and same-cylinder requests are locality successes, not
    seeks.  Returns a histogram snapshot dict (the same shape metric
    registries export), or None when the trace holds no seeks.
    """
    hist = Histogram("trace.seek_distance_cyl", buckets=_distance_buckets())
    for row in trace_rows:
        if row.get("kind") not in ("read", "write"):
            continue
        if float(row.get("seek_ms", 0.0) or 0.0) > 0.0:
            hist.observe(float(row.get("seek_cyls", 0) or 0))
    if not hist.count:
        return None
    return hist.to_dict()


def _service_buckets() -> List[float]:
    """Millisecond ladder spanning buffer hits through multi-seek ops."""
    return [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0]


def service_time_histogram(
    trace_rows: Iterable[Dict[str, object]],
) -> Optional[Dict[str, object]]:
    """Distribution of per-request service time (seek + rotation +
    transfer), the trace-level view of what the paper's read/write
    throughput figures aggregate.  Includes every read/write request —
    buffer hits land in the bottom buckets, lost rotations in the tail
    — so a diff of two traces shows *where* the service mass moved.
    Returns a histogram snapshot dict, or None for an empty trace.
    """
    hist = Histogram("trace.service_time_ms", buckets=_service_buckets())
    for row in trace_rows:
        if row.get("kind") not in ("read", "write"):
            continue
        hist.observe(float(row.get("service_ms", 0.0) or 0.0))
    if not hist.count:
        return None
    return hist.to_dict()


def inter_request_histogram(
    trace_rows: Iterable[Dict[str, object]],
) -> Optional[Dict[str, object]]:
    """Distribution of cylinder gaps between consecutive requests.

    Unlike :func:`seek_distance_histogram` this includes zero-distance
    pairs — the sequential-access success case — so the mass at the
    bottom bucket *is* the locality the allocator bought.  Returns a
    histogram snapshot dict, or None for traces of fewer than two
    requests.
    """
    hist = Histogram("trace.inter_request_cyl", buckets=_distance_buckets())
    prev: Optional[int] = None
    for row in trace_rows:
        if row.get("kind") not in ("read", "write"):
            continue
        cyl = int(row.get("cyl", 0) or 0)
        if prev is not None:
            hist.observe(float(abs(cyl - prev)))
        prev = cyl
    if not hist.count:
        return None
    return hist.to_dict()


def trace_summary(
    trace_rows: Sequence[Dict[str, object]],
) -> Dict[str, object]:
    """Headline numbers for a trace: request mix, misses, drop count."""
    requests, dropped = split_truncation(trace_rows)
    reads = writes = lost = hits = 0
    service_ms = 0.0
    for row in requests:
        kind = row.get("kind")
        if kind == "read":
            reads += 1
        elif kind == "write":
            writes += 1
        else:
            continue
        if row.get("lost_rot"):
            lost += 1
        if row.get("buf_hit"):
            hits += 1
        service_ms += float(row.get("service_ms", 0.0) or 0.0)
    return {
        "requests": reads + writes,
        "reads": reads,
        "writes": writes,
        "lost_rotations": lost,
        "buffer_hits": hits,
        "service_ms": round(service_ms, 4),
        "dropped": dropped,
    }
