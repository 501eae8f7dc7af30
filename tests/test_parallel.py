"""Tests for the parallel experiment runner (:mod:`repro.parallel`).

The load-bearing property is byte-identity: ``--jobs N`` must produce
exactly the stdout a serial run produces, because workers rebuild their
file systems from cached images and any behavioural drift in the image
layer (rotors, realloc marks, free maps) would surface here first.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.experiments import config
from repro.experiments.runner import (
    EXPERIMENTS,
    render_all,
    run_one_timed,
    slowest_summary,
)


@pytest.mark.slow
def test_parallel_render_is_byte_identical(private_cache):
    serial = render_all("tiny", jobs=1)
    config.clear_caches()
    parallel = render_all("tiny", jobs=2)
    assert parallel == serial


@pytest.mark.slow
def test_parallel_merges_worker_telemetry(private_cache):
    from repro.parallel import iter_all_parallel

    with obs.session() as (registry, tracer):
        blocks = list(iter_all_parallel("tiny", jobs=2))
        snapshot = registry.snapshot()
        spans = len(tracer.finished)
    from repro.parallel import _AFFINITY

    grouped = sum(len(group) - 1 for group in _AFFINITY)
    assert [name for name, _text, _wall in blocks] == list(EXPERIMENTS)
    assert all(wall >= 0 for _n, _t, wall in blocks)
    # one task per affinity group plus the three aging pre-warm tasks
    assert snapshot["parallel.experiment_tasks"]["value"] == (
        len(EXPERIMENTS) - grouped
    )
    assert snapshot["parallel.warm_tasks"]["value"] == 3
    # worker-side work was merged home: the replay counters exist and
    # carry the whole suite's aging volume, not a fraction of it
    assert snapshot["replay.ops"]["value"] > 0
    assert snapshot["cache.writes"]["value"] >= 3
    assert spans > len(EXPERIMENTS)  # adopted worker spans, not just local


def test_jobs_one_takes_the_serial_path(private_cache, monkeypatch):
    import repro.parallel as parallel

    def boom(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("worker pool must not start for jobs=1")

    monkeypatch.setattr(parallel, "_experiment_group_task", boom)
    from repro.experiments.runner import iter_all_rendered

    name, text, wall = next(iter_all_rendered("tiny", jobs=1))
    assert name == "table1" and text and wall >= 0


def test_run_one_timed_measures_without_telemetry():
    assert not obs.enabled()
    result, wall = run_one_timed("table1", "tiny")
    assert result is not None
    assert wall >= 0.0


def test_run_one_timed_unknown_name():
    with pytest.raises(ValueError, match="unknown experiment"):
        run_one_timed("fig9", "tiny")


def test_slowest_summary_ranks_and_totals():
    times = {"fig1": 4.26, "fig2": 2.11, "table1": 0.05, "fig4": 1.2}
    line = slowest_summary(times, top=3)
    assert line == "slowest: fig1 4.3s, fig2 2.1s, fig4 1.2s (total 7.6s)"


def test_slowest_summary_breaks_ties_by_name():
    line = slowest_summary({"b": 1.0, "a": 1.0}, top=2)
    assert line == "slowest: a 1.0s, b 1.0s (total 2.0s)"
