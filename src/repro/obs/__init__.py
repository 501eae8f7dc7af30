"""``repro.obs`` — the telemetry layer of the reproduction.

Four kinds of record, one switch:

* **metrics** (:mod:`repro.obs.metrics`) — counters, gauges, and
  histograms in a name-keyed registry;
* **traces** (:mod:`repro.obs.trace`) — hierarchical spans with
  wall-clock and simulated-clock timing;
* **row logs** (:mod:`repro.obs.events`) — one bounded, ``seq``-numbered
  JSONL log behind both the typed event log (:class:`EventLog`,
  ``--events``) and the per-request disk trace (:class:`DiskTrace`,
  ``--disk-trace``): one bound, one adopt path, one truncation marker,
  one reader;
* **manifests** (:mod:`repro.obs.manifest` / :mod:`repro.obs.export`) —
  one JSON artifact per run bundling config, environment, and metrics.

The phase profiler (:class:`PhaseProfiler`, ``--profile``) rides the
same switch.

Telemetry is **disabled by default** and the disabled path is a no-op
fast path: instrumented code asks :func:`metrics_or_none` /
:func:`tracer_or_none` once (usually at construction) and skips its
telemetry blocks entirely when they return ``None``.  Telemetry never
selects a simulator code path: the same code runs with a session live
or not, and the handles only guard what gets recorded, so the
simulator's results and tier-1 benchmark numbers are bit-identical
either way.

The registry/tracer pair is process-wide but *injectable*: tests and
embedders can pass their own instances to :func:`enable` (or use the
:func:`session` context manager) instead of sharing the globals.

Typical instrumentation::

    from repro import obs

    class Replayer:
        def __init__(self):
            self._m = obs.metrics_or_none()

        def apply(self, op):
            ...
            if self._m is not None:
                self._m.counter("replay.ops").inc()

Typical capture (what the CLI does for ``--metrics``/``--trace``)::

    with obs.session() as (registry, tracer):
        with tracer.span("experiment.fig1", preset="tiny"):
            run_experiment()
        snapshot = registry.snapshot()
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional, Tuple

from repro.obs.disktrace import DiskTrace
from repro.obs.events import EventLog
from repro.obs.manifest import RunManifest, environment_info
from repro.obs.metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.profiling import PhaseProfiler
from repro.obs.trace import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "EventLog",
    "DiskTrace",
    "PhaseProfiler",
    "RunManifest",
    "environment_info",
    "enabled",
    "enable",
    "disable",
    "session",
    "metrics",
    "tracer",
    "metrics_or_none",
    "tracer_or_none",
    "events_or_none",
    "disktrace_or_none",
    "profiler_or_none",
]

_registry: Optional[MetricsRegistry] = None
_tracer: Optional[Tracer] = None
_events: Optional[EventLog] = None
_disktrace: Optional[DiskTrace] = None
_profiler: Optional[PhaseProfiler] = None


def enabled() -> bool:
    """Whether a telemetry session is active in this process."""
    return _registry is not None


def enable(
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    events: Optional[EventLog] = None,
    profiler: Optional[PhaseProfiler] = None,
    disktrace: Optional[DiskTrace] = None,
) -> Tuple[MetricsRegistry, Tracer]:
    """Activate telemetry; returns the active (registry, tracer) pair.

    Objects constructed *after* this call pick up the active registry;
    objects constructed before keep their no-op handles.  Passing
    explicit instances injects them (tests do this); otherwise fresh
    ones are created.  The event log, profiler, and disk trace are
    **opt-in**: they stay off unless an instance is passed (the CLI
    builds one for ``--events`` / ``--profile`` / ``--disk-trace``), so
    a plain metrics/trace session pays nothing for them.
    """
    global _registry, _tracer, _events, _disktrace, _profiler
    _registry = registry if registry is not None else MetricsRegistry()
    _tracer = tracer if tracer is not None else Tracer()
    _events = events
    _disktrace = disktrace
    _profiler = profiler
    return _registry, _tracer


def disable() -> None:
    """Deactivate telemetry; instrumented code reverts to the no-op path."""
    global _registry, _tracer, _events, _disktrace, _profiler
    _registry = None
    _tracer = None
    _events = None
    _disktrace = None
    _profiler = None


@contextmanager
def session(
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    events: Optional[EventLog] = None,
    profiler: Optional[PhaseProfiler] = None,
    disktrace: Optional[DiskTrace] = None,
):
    """Enable telemetry for a ``with`` block, restoring the prior state."""
    prior = (_registry, _tracer, _events, _disktrace, _profiler)
    pair = enable(registry, tracer, events, profiler, disktrace)
    try:
        yield pair
    finally:
        _restore(prior)


def _restore(
    prior: Tuple[
        Optional[MetricsRegistry], Optional[Tracer],
        Optional[EventLog], Optional[DiskTrace], Optional[PhaseProfiler],
    ],
) -> None:
    global _registry, _tracer, _events, _disktrace, _profiler
    _registry, _tracer, _events, _disktrace, _profiler = prior


def metrics() -> "MetricsRegistry | NullRegistry":
    """The active registry, or the shared null registry when disabled."""
    return _registry if _registry is not None else NULL_REGISTRY


def tracer() -> "Tracer | NullTracer":
    """The active tracer, or the shared null tracer when disabled."""
    return _tracer if _tracer is not None else NULL_TRACER


def metrics_or_none() -> Optional[MetricsRegistry]:
    """The active registry, or None — the hot-path guard form."""
    return _registry


def tracer_or_none() -> Optional[Tracer]:
    """The active tracer, or None — the hot-path guard form."""
    return _tracer


def events_or_none() -> Optional[EventLog]:
    """The active event log, or None — the hot-path guard form.

    None both when telemetry is fully off and when a session is active
    without an event log (metrics/trace only).
    """
    return _events


def disktrace_or_none() -> Optional[DiskTrace]:
    """The active disk trace, or None — the hot-path guard form.

    None both when telemetry is fully off and when a session is active
    without a disk trace (tracing is opt-in via ``--disk-trace``).
    """
    return _disktrace


def profiler_or_none() -> Optional[PhaseProfiler]:
    """The active phase profiler, or None when not profiling."""
    return _profiler
