"""Counters, gauges, and histograms for the telemetry layer.

Every headline number in the reproduction — layout scores, throughput,
lost rotations — is computed from internal simulator state.  The metric
primitives here make that state observable without changing it:

* :class:`Counter` — a monotonically increasing total (events, bytes);
* :class:`Gauge` — a last-write-wins value (final layout score);
* :class:`Histogram` — a bucketed distribution plus count/sum/min/max
  (seek times, rotational waits, relocation distances).

Metrics live in a :class:`MetricsRegistry`, keyed by dotted name
(``disk.seeks``, ``realloc.distance_blocks``).  A registry snapshot is a
plain dict of plain values, ready for the JSON/CSV exporters in
:mod:`repro.obs.export` and for the ``repro-ffs stats`` renderer.

There is no null registry: instrumented code asks
:func:`repro.obs.metrics_or_none` and skips its telemetry block when
telemetry is off.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_buckets",
]


def default_buckets() -> Tuple[float, ...]:
    """Power-of-two bucket bounds covering sub-millisecond to ~16 s.

    The same geometric ladder works for the quantities the simulator
    observes: service times in milliseconds (0.1–50), rotational waits
    (0–11 ms), and relocation distances in blocks (1–10k).
    """
    return tuple(2.0**i for i in range(-3, 15))


class Counter:
    """A monotonically increasing numeric total."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value: float = 0

    def inc(self, n: float = 1) -> None:
        """Add ``n`` (must be >= 0) to the total."""
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += n

    def to_dict(self) -> Dict[str, object]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A last-write-wins value."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta

    def to_dict(self) -> Dict[str, object]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """A bucketed distribution with exact count/sum/min/max.

    Buckets are cumulative-upper-bound style (Prometheus convention):
    ``bucket_counts[i]`` counts observations ``<= bounds[i]``, with an
    implicit +inf bucket at the end.
    """

    __slots__ = ("name", "help", "bounds", "bucket_counts", "count", "sum",
                 "min", "max")

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
    ):
        self.name = name
        self.help = help
        self.bounds: Tuple[float, ...] = tuple(
            sorted(buckets if buckets is not None else default_buckets())
        )
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def merge_dict(self, data: Dict[str, object]) -> None:
        """Fold a :meth:`to_dict` snapshot (e.g. from a worker process) in.

        Exact for count/sum/min/max; bucket counts land in the bucket
        whose recorded upper bound they carry (identical bounds ladders
        merge losslessly, which is the case for all repro histograms).
        """
        for bound, n in data.get("buckets", []):  # type: ignore[union-attr]
            if bound == "+inf":
                idx = len(self.bounds)
            else:
                idx = bisect.bisect_left(self.bounds, float(bound))
            self.bucket_counts[idx] += int(n)
        self.count += int(data.get("count", 0))  # type: ignore[arg-type]
        self.sum += float(data.get("sum", 0.0))  # type: ignore[arg-type]
        for extreme, pick in (("min", min), ("max", max)):
            value = data.get(extreme)
            if value is None:
                continue
            mine = getattr(self, extreme)
            setattr(
                self, extreme,
                float(value) if mine is None else pick(mine, float(value)),  # type: ignore[arg-type]
            )

    def to_dict(self) -> Dict[str, object]:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "buckets": [
                [bound, n]
                for bound, n in zip(
                    list(self.bounds) + ["+inf"], self.bucket_counts
                )
                if n
            ],
        }


class MetricsRegistry:
    """Name-keyed store of metrics with get-or-create accessors.

    Accessors are idempotent: asking twice for the same name returns the
    same object, so instrumentation sites never coordinate.  Asking for
    an existing name with a different metric kind raises ``TypeError``
    (two subsystems silently sharing one name would corrupt both).
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def _get_or_create(self, cls, name: str, *args, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, *args, **kwargs)
            self._metrics[name] = metric
        elif type(metric) is not cls:
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """All metrics as plain dicts, sorted by name."""
        return {
            name: self._metrics[name].to_dict()  # type: ignore[attr-defined]
            for name in sorted(self._metrics)
        }

    def merge_snapshot(self, snapshot: Dict[str, Dict[str, object]]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        This is how a parallel run aggregates telemetry: each worker
        snapshots its own registry and the parent merges them, so the
        final manifest carries suite-wide totals just like a serial
        run.  Counters add, gauges take the incoming value (merge in a
        deterministic order for a deterministic result), histograms
        merge exactly via :meth:`Histogram.merge_dict`.
        """
        for name, data in snapshot.items():
            kind = data.get("type")
            if kind == "counter":
                self.counter(name).inc(float(data.get("value", 0)))  # type: ignore[arg-type]
            elif kind == "gauge":
                self.gauge(name).set(float(data.get("value", 0.0)))  # type: ignore[arg-type]
            elif kind == "histogram":
                self.histogram(name).merge_dict(data)

