"""``repro.obs`` — the telemetry layer of the reproduction.

Four kinds of record, one switch, one file:

* **metrics** (:mod:`repro.obs.metrics`) — counters, gauges, and
  histograms in a name-keyed registry;
* **row logs** (:mod:`repro.obs.events`) — one bounded, ``seq``-numbered
  log kind behind the span trace (:class:`Tracer`), the typed event log
  (:class:`EventLog`) and the per-request disk log (:class:`DiskTrace`,
  opt-in with ``--disk-rows``): one bound, one adopt path, one
  truncation marker;
* **profiles** (:mod:`repro.obs.profiling`) — a :class:`PhaseProfiler`
  (``--profile``) handed to the tracer, which profiles each
  ``tracer.span`` block as the same-named phase;
* **manifests** (:mod:`repro.obs.manifest`) — config, environment,
  timings and the metrics snapshot of one run.

A captured run is written as one **run file** (:mod:`repro.obs.runfile`,
``--run FILE``): JSONL whose first row is the manifest header, whose
log rows are tagged ``span``, ``event`` or ``disk``, and whose last row
is the metrics snapshot.  One loader checks it for ``report``, ``diff``,
``stats`` and the run registry (``--record``, :mod:`repro.obs.store`).

Telemetry is **disabled by default** and the disabled path is a no-op
fast path: instrumented code asks :func:`metrics_or_none` /
:func:`tracer_or_none` (and the other ``*_or_none`` guards) once,
usually at construction, and skips its telemetry blocks entirely when
they return ``None``.  There is no null-object form: :func:`metrics`
returns the live registry and raises when no session is live, so it
belongs to session owners (the CLI, the benchmark harness), not to
library code (replint R002).  Telemetry never selects a simulator code
path: the same code runs with a session live or not, and the handles
only guard what gets recorded, so the simulator's results and tier-1
benchmark numbers are bit-identical either way.

The session is process-wide but *injectable*: tests and embedders can
pass their own instances to :func:`enable` (or use the :func:`session`
context manager) instead of sharing the globals.  A :class:`Capture`
names what a CLI session records beyond metrics, spans and events (the
disk rows, the profile) and opens one: the CLI opens its session from
the flags, and :func:`capture_or_none` hands the live one's shape to
``--jobs`` workers, which open the same.

Typical instrumentation::

    from repro import obs

    class Replayer:
        def __init__(self):
            self._m = obs.metrics_or_none()

        def apply(self, op):
            ...
            if self._m is not None:
                self._m.counter("replay.ops").inc()

Typical capture (what the CLI does for ``--run``)::

    with obs.session() as (registry, tracer):
        with tracer.span("experiment.fig1", preset="tiny"):
            run_experiment()
        snapshot = registry.snapshot()
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import NamedTuple, Optional, Tuple

from repro.errors import InvalidRequestError
from repro.obs.disktrace import DiskTrace
from repro.obs.events import EventLog
from repro.obs.manifest import RunManifest, environment_info
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profiling import PhaseProfiler
from repro.obs.trace import Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "EventLog",
    "DiskTrace",
    "PhaseProfiler",
    "RunManifest",
    "environment_info",
    "enabled",
    "enable",
    "disable",
    "session",
    "Capture",
    "capture_or_none",
    "metrics",
    "metrics_or_none",
    "tracer_or_none",
    "events_or_none",
    "disktrace_or_none",
]

_registry: Optional[MetricsRegistry] = None
_tracer: Optional[Tracer] = None
_events: Optional[EventLog] = None
_disktrace: Optional[DiskTrace] = None


def enabled() -> bool:
    """Whether a telemetry session is active in this process."""
    return _registry is not None


def enable(
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    events: Optional[EventLog] = None,
    disktrace: Optional[DiskTrace] = None,
) -> Tuple[MetricsRegistry, Tracer]:
    """Activate telemetry; returns the active (registry, tracer) pair.

    Objects constructed *after* this call pick up the active registry;
    objects constructed before keep their no-op handles.  Passing
    explicit instances injects them (tests do this, and the CLI passes
    a ``Tracer(profiler=...)`` for ``--profile``); otherwise fresh ones
    are created.  The event log and disk trace stay off unless an
    instance is passed (a :class:`Capture` always passes an event log,
    and a disk log for ``--disk-rows``), so a plain metrics/trace
    session pays nothing for them.
    """
    global _registry, _tracer, _events, _disktrace
    _registry = registry if registry is not None else MetricsRegistry()
    _tracer = tracer if tracer is not None else Tracer()
    _events = events
    _disktrace = disktrace
    return _registry, _tracer


def disable() -> None:
    """Deactivate telemetry; instrumented code reverts to the no-op path."""
    global _registry, _tracer, _events, _disktrace
    _registry = _tracer = _events = _disktrace = None


@contextmanager
def session(
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    events: Optional[EventLog] = None,
    disktrace: Optional[DiskTrace] = None,
):
    """Enable telemetry for a ``with`` block, restoring the prior state."""
    global _registry, _tracer, _events, _disktrace
    prior = (_registry, _tracer, _events, _disktrace)
    pair = enable(registry, tracer, events, disktrace)
    try:
        yield pair
    finally:
        _registry, _tracer, _events, _disktrace = prior


class Capture(NamedTuple):
    """What a run-file session records beyond metrics, spans and events."""

    disktrace: bool = False
    profile: bool = False

    def open(self):
        """A :func:`session` with fresh logs of this shape."""
        return session(
            tracer=Tracer(profiler=PhaseProfiler() if self.profile else None),
            events=EventLog(),
            disktrace=DiskTrace() if self.disktrace else None,
        )


def capture_or_none() -> Optional[Capture]:
    """The live session's :class:`Capture`, or None with no session."""
    if _registry is None:
        return None
    return Capture(
        disktrace=_disktrace is not None,
        profile=_tracer is not None and _tracer.profiler is not None,
    )


def metrics() -> MetricsRegistry:
    """The live registry; raises :class:`InvalidRequestError` when no
    session is live (library code asks :func:`metrics_or_none`)."""
    if _registry is None:
        raise InvalidRequestError("obs.metrics(): no telemetry session is live")
    return _registry


def metrics_or_none() -> Optional[MetricsRegistry]:
    """The active registry, or None — the hot-path guard form."""
    return _registry


def tracer_or_none() -> Optional[Tracer]:
    """The active tracer, or None — the hot-path guard form."""
    return _tracer


def events_or_none() -> Optional[EventLog]:
    """The active event log, or None — the hot-path guard form.

    None both when telemetry is fully off and when a session is active
    without an event log (one opened by :func:`enable` without one).
    """
    return _events


def disktrace_or_none() -> Optional[DiskTrace]:
    """The active disk trace, or None — the hot-path guard form.

    None both when telemetry is fully off and when a session is active
    without a disk trace (disk rows are opt-in via ``--disk-rows``).
    """
    return _disktrace
