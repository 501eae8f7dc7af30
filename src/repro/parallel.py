"""``repro.parallel`` — one fan-out for every grid of independent work.

:func:`fan_out` owns the package's only ``ProcessPoolExecutor``: it
submits waves of ``(origin, fn, args)`` tasks, runs each in a worker
through one entry point (:func:`_run_task`), and yields the results in
task order; with ``jobs <= 1`` it runs the same calls inline.  Three
callers sit on it:

* :func:`age_many` — a batch of aging specs.  With the cache on,
  workers age the misses into the shared :mod:`repro.cache` store (the
  warm wave) and the parent loads every result; with it off, the batch
  ages serially;
* :func:`iter_all_parallel` — ``experiment all --jobs N``: the warm
  wave of the suite's three agings, then, on the same pool, one task
  per experiment *group*, whose workers read the warm cache and ship
  home rendered *text* (file systems cost more to pickle than to
  reload).  Experiments sharing memoized work (Figures 4→5→6) form one
  group (:data:`_AFFINITY`);
* :func:`repro.faults.chaos.run_chaos` — one task per crash case.

Output is byte-identical to the serial path because both run the same
code on behaviourally identical file systems (the image layer
round-trips allocator state exactly; ``tests/test_parallel.py`` pins
this).

Telemetry composes: when the parent has an active :mod:`repro.obs`
session, each worker task opens its own; the parent merges the metrics
(counters add, histograms merge exactly), adopts the spans, and adopts
the event log and disk trace (shipped as ``(rows, dropped)``) with one
:meth:`repro.obs.events.RowLog.adopt` call each, so ``--jobs N``
manifests carry run-wide totals and disk traces equal the serial ones.
Instrumented objects bind their registry at construction and pooled
workers outlive tasks, so such a task first drops the worker's memos;
totals can then exceed a serial run's where workers each rebuild
shared inputs.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Sequence, Tuple

from repro import cache, obs
from repro.obs import events as obs_events
from repro.storage import DEFAULT_BACKEND

if TYPE_CHECKING:
    from repro.aging.generator import AgingArtifacts, AgingConfig
    from repro.aging.replay import ReplayResult
    from repro.experiments.config import Aging

#: ``(origin, fn, args)``: one unit of :func:`fan_out` work.
Task = Tuple[str, Callable[..., object], Tuple[object, ...]]

#: Experiments that share in-process memoized work (fig5 reuses fig4's
#: benchmark sweep; fig6 reuses fig5) and therefore run in one task.
_AFFINITY: Tuple[Tuple[str, ...], ...] = (("fig4", "fig5", "fig6"),)


def _run_task(
    fn: Callable[..., object], args: Tuple[object, ...], settings: tuple
) -> Dict[str, object]:
    """The one worker entry point: pin the parent's cache ``settings``,
    run ``fn(*args)`` (in a fresh telemetry session when the parent has
    one) and ship the result home with the session's snapshot."""
    cache_enabled, cache_dir, telemetry, events, disktrace = settings
    cache.configure(enabled=cache_enabled, directory=cache_dir)
    if not telemetry:
        return {"result": fn(*args)}
    from repro.experiments import config

    config.clear_caches()  # rebind instrumented objects to this session
    with obs.session(
        events=obs.EventLog() if events else None,
        disktrace=obs.DiskTrace() if disktrace else None,
    ) as (registry, tracer):
        result = fn(*args)
        payload = _telemetry_payload(registry, tracer)
    payload["result"] = result
    return payload


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
        # origin stamp): tasks are absorbed in task order and the aging
        # replay issues no disk requests, so the merged stream is
        # byte-identical to a serial run's — and pinned by tests.
        disktrace.adopt(*payload["disktrace"])  # type: ignore[misc]


def fan_out(waves: Sequence[Sequence[Task]], jobs: int) -> Iterator[object]:
    """Yield ``fn(*args)`` for each ``(origin, fn, args)`` task in order:
    inline for ``jobs <= 1`` or a single task, else from one worker pool
    (``fn`` must be module-level to pickle), absorbing each task's
    telemetry under ``origin``.  A wave is submitted once every earlier
    result is in; the workers, and their memos, outlive the waves."""
    if jobs <= 1 or sum(map(len, waves)) <= 1:
        yield from (fn(*args) for _o, fn, args in itertools.chain(*waves))
        return
    settings = (
        cache.is_enabled(), str(cache.directory()), obs.enabled(),
        obs.events_or_none() is not None, obs.disktrace_or_none() is not None,
    )
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for wave in waves:
            futures = [
                pool.submit(_run_task, fn, args, settings)
                for _origin, fn, args in wave
            ]
            for (origin, _fn, _args), future in zip(wave, futures):
                payload = future.result()
                _absorb_telemetry(payload, origin)
                yield payload["result"]


def _warm(spec: "Aging") -> None:
    """Age one spec into the shared cache (the result stays there)."""
    from repro.experiments import config

    config.age(spec)
    registry = obs.metrics_or_none()
    if registry is not None:
        registry.counter("parallel.warm_tasks").inc()


def _warm_wave(specs: Sequence["Aging"]) -> List[Task]:
    """One :func:`_warm` task per distinct spec missing from the cache
    (none when the cache is off: workers could not share the results)."""
    store = cache.store()
    if store is None:
        return []
    misses = {
        spec.key().digest: spec for spec in specs
        if not store.path_for(spec.key()).is_file()
    }
    return [
        (f"warm.{s.workload}.{s.policy}", _warm, (s,)) for s in misses.values()
    ]


def age_many(
    specs: Sequence["Aging"], jobs: int = 1
) -> Iterator["ReplayResult"]:
    """Age every spec through the persistent cache, yielding results in
    order; with ``jobs > 1`` the misses are first aged by workers.  Each
    distinct workload is built at most once (none when every spec hits
    the cache) and dropped after the last spec that needs it."""
    from repro.experiments import config

    if jobs > 1:
        list(fan_out([_warm_wave(specs)], jobs))
    built: Dict["AgingConfig", "AgingArtifacts"] = {}
    last = {spec.config: i for i, spec in enumerate(specs)}
    for i, spec in enumerate(specs):
        yield config.age(spec, built)
        if last[spec.config] == i:
            built.pop(spec.config, None)


def _experiment_group_task(
    names: Tuple[str, ...], preset: str, backend: str
) -> Dict[str, Dict[str, object]]:
    """Run one affinity group of experiments in order; return each
    one's rendered text and wall time."""
    from repro.experiments.runner import run_one_timed

    out: Dict[str, Dict[str, object]] = {}
    for name in names:
        result, wall = run_one_timed(name, preset, backend)
        out[name] = {"text": result.render(), "wall": wall}  # type: ignore[attr-defined]
    return out


def iter_all_parallel(
    preset: str = "small", jobs: int = 2, backend: str = DEFAULT_BACKEND
) -> Iterator[Tuple[str, str, float]]:
    """Parallel twin of ``runner.iter_all_rendered``.

    Yields ``(name, rendered_text, wall_seconds)`` in paper order; the
    wall time is the worker's compute time for that experiment, not the
    (overlapped) wait in the parent.
    """
    from repro.experiments import config
    from repro.experiments.runner import EXPERIMENTS

    registry = obs.metrics_or_none()
    if registry is not None:
        registry.gauge("parallel.jobs").set(jobs)
    # Wave 1 ages the suite's agings (FFS, realloc, "Real") into the
    # cache, which wave 2's experiments read back; without the cache
    # each experiment ages privately.
    warm = _warm_wave([
        config.preset_aging(preset, "ffs"),
        config.preset_aging(preset, "realloc"),
        config.preset_aging(preset, workload="ground-truth"),
    ])
    groups = list(dict.fromkeys(
        next((g for g in _AFFINITY if name in g), (name,))
        for name in EXPERIMENTS
    ))
    arrivals = fan_out(
        [warm, [
            (f"experiment.{g[0]}", _experiment_group_task, (g, preset, backend))
            for g in groups
        ]],
        jobs,
    )
    list(itertools.islice(arrivals, len(warm)))  # the warm wave's Nones
    done: Dict[str, Dict[str, object]] = {}
    for name in EXPERIMENTS:
        while name not in done:  # fig6 arrives with fig4, before table2
            done.update(next(arrivals))  # type: ignore[call-overload]
            if registry is not None:
                registry.counter("parallel.experiment_tasks").inc()
        entry = done.pop(name)
        yield name, entry["text"], entry["wall"]  # type: ignore[misc]
