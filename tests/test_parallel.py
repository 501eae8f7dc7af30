"""Tests for the fan-out (:mod:`repro.parallel`) and its callers.

The load-bearing property is byte-identity: ``--jobs N`` must produce
exactly what a serial run produces — stdout, aged file systems, and
telemetry — because workers rebuild their file systems from cached
images and any behavioural drift in the image layer (rotors, realloc
marks, free maps) would surface here first.
"""

from __future__ import annotations

import bisect
import collections
import dataclasses
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cache, obs, parallel
from repro.experiments import config
from repro.faults.chaos import run_chaos
from repro.ffs.image import filesystem_to_document
from repro.experiments.runner import (
    EXPERIMENTS,
    render_all,
    run_one_timed,
    slowest_summary,
)
from repro.obs import events as obs_events
from repro.obs.disktrace import DiskTrace


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


def _fingerprint(result):
    """What an aging produced: its image and its layout timeline."""
    timeline = result.timeline
    return (
        filesystem_to_document(result.fs),
        timeline.label,
        [dataclasses.astuple(sample) for sample in timeline.samples],
    )


@pytest.mark.slow
def test_age_many_in_workers_matches_serial(private_cache):
    specs = [
        config.preset_aging("tiny", "ffs"),
        config.preset_aging("tiny", "realloc"),
        config.preset_aging("tiny", "realloc", maxcontig=2),
        config.preset_aging("tiny", workload="ground-truth"),
    ]
    cache.configure(enabled=False)
    serial = [_fingerprint(r) for r in parallel.age_many(specs, jobs=1)]
    cache.configure(enabled=True, directory=str(private_cache))
    with obs.session() as (registry, _tracer):
        fanned = [_fingerprint(r) for r in parallel.age_many(specs, jobs=2)]
        warm_tasks = registry.counter("parallel.warm_tasks").value
    assert warm_tasks == len(specs)  # every miss was aged in a worker
    assert len(cache.store().entries()) == len(specs)
    assert fanned == serial
    assert [label for _doc, label, _samples in serial] == [
        "FFS", "FFS + Realloc", "FFS + Realloc", "Real",
    ]


def _chaos_telemetry(jobs):
    """Metrics snapshot and per-type event counts (worker merge markers
    aside) of one seeded chaos grid."""
    log = obs.EventLog()
    with obs.session(events=log) as (registry, _tracer):
        run_chaos("tiny", crashes=2, seed=11, jobs=jobs)
        snapshot = registry.snapshot()
    types = collections.Counter(
        row["type"] for row in log.rows()
        if row["type"] != obs_events.WORKER_MERGE
    )
    return snapshot, types


@pytest.mark.slow
def test_chaos_jobs_carries_the_serial_telemetry():
    serial, serial_types = _chaos_telemetry(jobs=1)
    fanned, fanned_types = _chaos_telemetry(jobs=2)
    assert sorted(fanned) == sorted(serial)
    for name, metric in serial.items():
        if metric["type"] == "counter":
            # Float counters are summed in another order, nothing more.
            assert fanned[name]["value"] == pytest.approx(
                metric["value"], rel=1e-12
            ), name
    assert fanned_types == serial_types
    assert serial_types[obs_events.FAULT_INJECTED] > 0


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


# ----------------------------------------------------------------------
# Row-log adoption: what a worker drops must reach the parent's log
# ----------------------------------------------------------------------


def _worker_payload(**logs):
    """The telemetry one worker task ships home, from the given logs."""
    with obs.session(**logs) as (registry, tracer):
        return parallel._telemetry_payload(registry, tracer)


def _jsonl(log):
    buffer = io.StringIO()
    log.write_jsonl(buffer)
    return buffer.getvalue()


def _request(trace, n):
    trace.record(
        kind="read" if n % 2 else "write", byte=n * 8192, nbytes=8192,
        cyl=n, seek_cyls=1, seek_ms=0.5, rot_ms=1.0, transfer_ms=0.25,
        service_ms=1.75, lost_rot=n % 5 == 0, buf_hit=n % 3 == 0,
    )


def _serial_and_adopted(total, cuts, bound, worker_bound):
    """JSONL of one serial trace, and of the same request stream split
    at ``cuts`` across worker traces and adopted by a parent."""
    serial = DiskTrace(bound)
    workers = [DiskTrace(worker_bound) for _ in range(len(cuts) + 1)]
    for n in range(total):
        _request(serial, n)
        _request(workers[bisect.bisect_right(cuts, n)], n)
    parent = DiskTrace(bound)
    with obs.session(disktrace=parent):
        for i, worker in enumerate(workers):
            parallel._absorb_telemetry(
                _worker_payload(disktrace=worker), origin=f"w{i}"
            )
    return _jsonl(serial), _jsonl(parent)


def test_worker_event_drops_reach_the_parent_marker():
    worker = obs.EventLog(2)
    for n in range(5):
        worker.emit(obs_events.CACHE_HIT, n=n)
    parent = obs.EventLog()
    with obs.session(events=parent):
        parallel._absorb_telemetry(_worker_payload(events=worker), "w0")
    assert parent.dropped == 3
    rows = obs_events.read_jsonl(io.StringIO(_jsonl(parent)))
    merge, first, second, marker = rows
    assert merge["type"] == obs_events.WORKER_MERGE
    assert (merge["events"], merge["dropped"]) == (2, 3)
    assert [first["n"], second["n"]] == [0, 1]
    assert first["origin"] == second["origin"] == "w0"
    assert marker == {
        "seq": 7, "type": obs_events.LOG_TRUNCATED, "dropped": 3,
    }


def test_split_truncated_trace_adopts_to_the_serial_trace():
    serial, adopted = _serial_and_adopted(10, [3], bound=4, worker_bound=4)
    assert serial.endswith('{"dropped":6,"seq":11,"type":"log_truncated"}\n')
    assert adopted == serial


@settings(max_examples=150, deadline=None)
@given(
    total=st.integers(0, 30),
    cuts=st.lists(st.integers(0, 30), max_size=3),
    bound=st.integers(1, 12),
    slack=st.integers(0, 4),
)
def test_adopted_trace_equals_serial_trace(total, cuts, bound, slack):
    # Workers bounded at least as loosely as the parent drop only rows
    # the parent would have dropped anyway.
    serial, adopted = _serial_and_adopted(
        total, sorted(cuts), bound, bound + slack
    )
    assert adopted == serial
