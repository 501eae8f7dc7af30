"""``repro.parallel`` — fan the experiment suite across processes.

The experiments are independent once the aged file systems exist, and
the agings themselves (policy x workload) are independent of each
other, so ``experiment all --jobs N`` runs in two waves on a
``ProcessPoolExecutor``:

1. **pre-warm** — one task per aging the suite depends on (FFS,
   realloc, and the ground-truth "Real" run).  Each worker replays its
   workload and persists the result into the shared
   :mod:`repro.cache` store; this wave is skipped when the cache is
   disabled, since there would be nowhere to share the results.
2. **experiments** — one task per experiment *group*, in the paper's
   order.  Workers read the now-warm cache instead of re-aging, render
   their results, and ship the *text* home (results embed whole
   simulated file systems; pickling them back would cost more than it
   saves).  Experiments that share memoized work — Figure 5 reads
   Figure 4's sweep, Figure 6 builds on Figure 5 — are grouped into a
   single task (:data:`_AFFINITY`), because splitting them across
   workers would re-run the shared sweep once per worker and hand back
   the wall-clock time parallelism just saved.

The storage backend travels with each experiment task as an argument;
the agings are shared across backends, so the pre-warm wave does not
need it.

Results stream back in paper order — the consumer blocks on the next
experiment in sequence while later ones keep running — and stdout is
byte-identical to the serial path because both sides run the very same
render code on behaviourally identical file systems (the image layer
round-trips allocator state exactly; ``tests/test_parallel.py`` pins
this).

Telemetry composes: when the parent has an active :mod:`repro.obs`
session, each worker opens its own session per task, snapshots it, and
the parent merges the snapshots (counters add, histograms merge
exactly) and adopts the worker spans into its trace — so a
``--metrics`` manifest from a parallel run carries suite-wide totals.
The event log and the disk trace travel as ``(rows, dropped)`` and are
merged by one :meth:`repro.obs.events.RowLog.adopt` call each, so a
worker's dropped rows reach the parent's ``log_truncated`` row and a
``--jobs N`` disk trace, truncated or not, equals the serial one.
Instrumented objects bind their registry at construction, and pooled
worker processes outlive individual tasks, so telemetry-enabled tasks
first drop the worker's in-process memo caches: otherwise an object
built during an earlier task would keep crediting that task's (already
snapshotted, dead) registry and its counts would vanish.  The disk
cache makes the resulting reload cheap.  Totals can still exceed a
serial run's where independent workers each rebuild shared inputs
(e.g. the aging workloads) that a single process builds once.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Iterator, Optional, Tuple

from repro import cache, obs
from repro.obs import events as obs_events
from repro.storage import DEFAULT_BACKEND

#: The agings ``experiment all`` depends on, as (accessor, policy) pairs.
_AGING_TASKS: Tuple[Tuple[str, Optional[str]], ...] = (
    ("aged", "ffs"),
    ("aged", "realloc"),
    ("aged_real", None),
)

#: Experiments that share in-process memoized work (fig5 reuses fig4's
#: benchmark sweep; fig6 reuses fig5) and therefore run in one task.
_AFFINITY: Tuple[Tuple[str, ...], ...] = (("fig4", "fig5", "fig6"),)


# ----------------------------------------------------------------------
# Worker-side task functions (module-level: they must pickle)
# ----------------------------------------------------------------------


def _worker_setup(cache_enabled: bool, cache_dir: str) -> None:
    """Pin the worker's cache to the parent's settings.

    The cache configuration is process-wide state, so a pooled worker
    must re-apply it to read the agings the parent's wave persisted.
    """
    cache.configure(
        enabled=cache_enabled, directory=cache_dir if cache_enabled else None
    )


def _telemetry_payload(registry, tracer) -> Dict[str, object]:
    """Snapshot a worker's session; each live row log ships as
    ``(rows, dropped)``, the arguments of :meth:`RowLog.adopt`."""
    payload: Dict[str, object] = {
        "metrics": registry.snapshot(), "spans": tracer.to_rows(),
    }
    for key, log in (
        ("events", obs.events_or_none()),
        ("disktrace", obs.disktrace_or_none()),
    ):
        if log is not None:
            payload[key] = (log.rows(), log.dropped)
    return payload


def _warm_aging_task(
    accessor: str,
    policy: Optional[str],
    preset: str,
    cache_enabled: bool,
    cache_dir: str,
    telemetry: bool,
    events: bool,
    disktrace: bool = False,
) -> Dict[str, object]:
    """Build (and persist) one aged file system in a worker."""
    from repro.experiments import config

    _worker_setup(cache_enabled, cache_dir)
    start = time.perf_counter()
    if not telemetry:
        _run_accessor(config, accessor, policy, preset)
        return {"wall": time.perf_counter() - start}
    config.clear_caches()  # rebind instrumented objects to this session
    with obs.session(
        events=obs.EventLog() if events else None,
        disktrace=obs.DiskTrace() if disktrace else None,
    ) as (registry, tracer):
        with tracer.span(f"parallel.warm.{policy or 'real'}", preset=preset):
            _run_accessor(config, accessor, policy, preset)
        payload = _telemetry_payload(registry, tracer)
    payload["wall"] = time.perf_counter() - start
    return payload


def _run_accessor(config, accessor: str, policy: Optional[str], preset: str):
    if accessor == "aged":
        return config.aged(preset, policy)
    return config.aged_real(preset)


def _experiment_group_task(
    names: Tuple[str, ...],
    preset: str,
    backend: str,
    cache_enabled: bool,
    cache_dir: str,
    telemetry: bool,
    events: bool,
    disktrace: bool = False,
) -> Dict[str, object]:
    """Run one affinity group of experiments in a worker, in order."""
    from repro.experiments import config
    from repro.experiments.runner import run_one_timed

    _worker_setup(cache_enabled, cache_dir)

    def _run_group() -> Dict[str, Dict[str, object]]:
        out: Dict[str, Dict[str, object]] = {}
        for name in names:
            result, wall = run_one_timed(name, preset, backend)
            out[name] = {"text": result.render(), "wall": wall}  # type: ignore[attr-defined]
        return out

    if not telemetry:
        return {"results": _run_group()}
    config.clear_caches()  # rebind instrumented objects to this session
    with obs.session(
        events=obs.EventLog() if events else None,
        disktrace=obs.DiskTrace() if disktrace else None,
    ) as (registry, tracer):
        results = _run_group()
        payload = _telemetry_payload(registry, tracer)
    payload["results"] = results
    return payload


# ----------------------------------------------------------------------
# Parent-side orchestration
# ----------------------------------------------------------------------


def _absorb_telemetry(payload: Dict[str, object], origin: str) -> None:
    """Merge one worker task's telemetry into the parent session."""
    registry = obs.metrics_or_none()
    if registry is not None and payload.get("metrics"):
        registry.merge_snapshot(payload["metrics"])  # type: ignore[arg-type]
    tracer = obs.tracer_or_none()
    if tracer is not None and payload.get("spans"):
        tracer.adopt_rows(payload["spans"], origin=origin)  # type: ignore[arg-type]
    events = obs.events_or_none()
    if events is not None and "events" in payload:
        # The merge marker precedes the grafted rows, so a reader of
        # the combined log can attribute what follows to the worker.
        rows, dropped = payload["events"]  # type: ignore[misc]
        events.emit(
            obs_events.WORKER_MERGE, origin=origin,
            events=len(rows), dropped=dropped,
        )
        events.adopt(rows, dropped, origin=origin)
    disktrace = obs.disktrace_or_none()
    if disktrace is not None and "disktrace" in payload:
        # Trace rows are adopted verbatim (sequence renumbered only, no
        # origin stamp): tasks are absorbed in paper order and the aging
        # replay issues no disk requests, so the merged stream is
        # byte-identical to a serial run's — and pinned by tests.
        disktrace.adopt(*payload["disktrace"])  # type: ignore[misc]


def iter_all_parallel(
    preset: str = "small", jobs: int = 2, backend: str = DEFAULT_BACKEND
) -> Iterator[Tuple[str, str, float]]:
    """Parallel twin of ``runner.iter_all_rendered``.

    Yields ``(name, rendered_text, wall_seconds)`` in paper order; the
    wall time is the worker's compute time for that experiment, not the
    (overlapped) wait in the parent.
    """
    from repro.experiments.runner import EXPERIMENTS, iter_all_rendered

    if jobs <= 1:
        yield from iter_all_rendered(preset, 1, backend)
        return

    cache_enabled = cache.is_enabled()
    cache_dir = str(cache.directory())
    telemetry = obs.enabled()
    events_on = obs.events_or_none() is not None
    disktrace_on = obs.disktrace_or_none() is not None
    registry = obs.metrics_or_none()
    if registry is not None:
        registry.gauge("parallel.jobs").set(jobs)

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        if cache_enabled:
            # Wave 1: the agings, which everything else reads back from
            # the shared cache.  Without the cache, workers could not
            # share them, so each experiment ages privately instead.
            warm = [
                pool.submit(
                    _warm_aging_task, accessor, policy, preset,
                    cache_enabled, cache_dir, telemetry, events_on,
                    disktrace_on,
                )
                for accessor, policy in _AGING_TASKS
            ]
            for (accessor, policy), future in zip(_AGING_TASKS, warm):
                payload = future.result()
                _absorb_telemetry(payload, origin=f"warm.{policy or 'real'}")
                if registry is not None:
                    registry.counter("parallel.warm_tasks").inc()
        group_of = {
            name: next((g for g in _AFFINITY if name in g), (name,))
            for name in EXPERIMENTS
        }
        futures = {}
        for name in EXPERIMENTS:
            group = group_of[name]
            if group not in futures:
                futures[group] = pool.submit(
                    _experiment_group_task, group, preset, backend,
                    cache_enabled, cache_dir, telemetry, events_on,
                    disktrace_on,
                )
        absorbed = set()
        for name in EXPERIMENTS:
            group = group_of[name]
            payload = futures[group].result()
            if group not in absorbed:
                absorbed.add(group)
                _absorb_telemetry(payload, origin=f"experiment.{group[0]}")
                if registry is not None:
                    registry.counter("parallel.experiment_tasks").inc()
            entry = payload["results"][name]  # type: ignore[index]
            if registry is not None:
                registry.gauge(f"experiment.{name}.wall_s").set(
                    entry["wall"]  # type: ignore[arg-type]
                )
            yield name, entry["text"], entry["wall"]  # type: ignore[misc]

