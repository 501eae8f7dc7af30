"""Run-all entry point for the experiment suite.

``run_all`` executes every experiment at one preset and returns the
rendered text blocks in paper order; the CLI and the EXPERIMENTS.md
generator both sit on top of it.  ``iter_all`` is the streaming form:
it yields each experiment's result (with its wall time) as soon as it
completes, so the CLI can print progressively instead of sitting
silent until the whole suite finishes.

Every experiment is called as ``run(preset, backend)``: the storage
backend is an argument, so experiment memos key on the device and one
process can run the suite on both.  Every experiment runs inside a
telemetry span (``experiment.<name>``) when :mod:`repro.obs` is
enabled; its wall time is also published as a gauge so run manifests
record where the time went.
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from typing import Callable, Dict, Iterator, List, Tuple

from repro import obs
from repro.obs import events as obs_events
from repro.experiments import (
    empty_vs_aged,
    flash,
    lfs_compare,
    fig1,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    rotdelay,
    table1,
    table2,
)
from repro.storage import DEFAULT_BACKEND

#: Experiment registry, in the paper's presentation order.
EXPERIMENTS: Dict[str, Callable[[str, str], object]] = {
    "table1": table1.run,
    "fig1": fig1.run,
    "fig2": fig2.run,
    "fig3": fig3.run,
    "fig4": fig4.run,
    "fig5": fig5.run,
    "table2": table2.run,
    "fig6": fig6.run,
    # Beyond the paper's evaluation section:
    "empty-vs-aged": empty_vs_aged.run,
    "rotdelay": rotdelay.run,
    "lfs": lfs_compare.run,
}

#: Experiments runnable by name but excluded from ``all`` — ``all``'s
#: roster (and therefore its stdout) is pinned by tests and compared
#: across revisions, so additions land here instead.
EXTRA_EXPERIMENTS: Dict[str, Callable[[str, str], object]] = {
    "flash": flash.run,
}


def timed_call(
    label: str,
    call: Callable[[], object],
    preset: "str | None" = None,
) -> Tuple[object, float]:
    """Run ``call`` under the suite's standard telemetry envelope.

    One span named ``label``, one profiler phase, and a
    ``<label>.wall_s`` gauge — or none of them when telemetry is off,
    in which case only the (always-measured) wall clock remains.  The
    experiment runner and the chaos harness (:mod:`repro.faults.chaos`)
    use this envelope inline and in :mod:`repro.parallel` workers alike,
    so their traces read the same with or without ``--jobs``.
    """
    tr = obs.tracer_or_none()
    prof = obs.profiler_or_none()
    start = time.perf_counter()
    if tr is None and prof is None:
        result = call()
        return result, time.perf_counter() - start
    with ExitStack() as stack:
        if tr is not None:
            stack.enter_context(tr.span(label, preset=preset))
        if prof is not None:
            stack.enter_context(prof.phase(label))
        result = call()
    elapsed = time.perf_counter() - start
    m = obs.metrics_or_none()
    if m is not None:
        m.gauge(f"{label}.wall_s").set(elapsed)
    return result, elapsed


def run_one_timed(
    name: str, preset: str = "small", backend: str = DEFAULT_BACKEND
) -> Tuple[object, float]:
    """Run a single experiment; returns ``(result, wall_seconds)``.

    The wall time is measured unconditionally — telemetry being off
    must not cost the CLI its timing report — and additionally
    published as a span + gauge when telemetry is on.
    """
    registry = {**EXPERIMENTS, **EXTRA_EXPERIMENTS}
    try:
        runner = registry[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; choose from {sorted(registry)}"
        ) from None
    ev = obs.events_or_none()
    if ev is not None:
        ev.emit(obs_events.EXPERIMENT_START, name=name, preset=preset)
    result, elapsed = timed_call(
        f"experiment.{name}", lambda: runner(preset, backend), preset=preset
    )
    if ev is not None:
        ev.emit(
            obs_events.EXPERIMENT_END, name=name, preset=preset,
            wall_s=round(elapsed, 4),
        )
    return result, elapsed


def run_one(
    name: str, preset: str = "small", backend: str = DEFAULT_BACKEND
) -> object:
    """Run a single experiment by registry name."""
    result, _elapsed = run_one_timed(name, preset, backend)
    return result


def iter_all(
    preset: str = "small", backend: str = DEFAULT_BACKEND
) -> Iterator[Tuple[str, object, float]]:
    """Run the suite in paper order, yielding as each experiment ends.

    Yields ``(name, result, wall_seconds)`` tuples; consumers that want
    progressive output (the CLI) render each one on arrival.
    """
    for name in EXPERIMENTS:
        result, elapsed = run_one_timed(name, preset, backend)
        yield name, result, elapsed


def iter_all_rendered(
    preset: str = "small", jobs: int = 1, backend: str = DEFAULT_BACKEND
) -> Iterator[Tuple[str, str, float]]:
    """Like :meth:`iter_all` but yields rendered text blocks.

    This is the form the CLI and :func:`render_all` consume, because it
    is the common denominator of the serial and parallel paths: a
    parallel worker ships text (results hold whole file systems, which
    are not worth pickling back).  ``jobs > 1`` fans the suite across
    worker processes via :mod:`repro.parallel`; the yielded stream is
    identical either way, in paper order.
    """
    if jobs > 1:
        from repro.parallel import iter_all_parallel

        yield from iter_all_parallel(preset, jobs, backend)
        return
    for name, result, elapsed in iter_all(preset, backend):
        yield name, result.render(), elapsed  # type: ignore[attr-defined]


def run_all(preset: str = "small") -> List[Tuple[str, object]]:
    """Run every experiment at ``preset`` in paper order."""
    return [(name, result) for name, result, _elapsed in iter_all(preset)]


def experiment_header(name: str, preset: str) -> str:
    """The banner printed above one experiment's rendered block."""
    return f"{'=' * 78}\n{name} (preset: {preset})\n{'=' * 78}"


def slowest_summary(times: Dict[str, float], top: int = 3) -> str:
    """One-line "where did the time go" summary of a suite run."""
    ranked = sorted(times.items(), key=lambda item: (-item[1], item[0]))[:top]
    body = ", ".join(f"{name} {elapsed:.1f}s" for name, elapsed in ranked)
    return f"slowest: {body} (total {sum(times.values()):.1f}s)"


def render_all(
    preset: str = "small", jobs: int = 1, backend: str = DEFAULT_BACKEND
) -> str:
    """Rendered text of the full suite, ready for the terminal."""
    blocks = []
    for name, text, _elapsed in iter_all_rendered(preset, jobs, backend):
        blocks.append(experiment_header(name, preset))
        blocks.append(text)
    return "\n\n".join(blocks)
