"""Telemetry instrumentation tests: disk model, allocators, replay, CLI.

The load-bearing guarantee is at the top: with telemetry disabled
(the default), the instrumented code paths must leave every
``DiskModel.access`` result — and therefore every benchmark number —
bit-identical to the seed implementation.
"""

import copy
import json

import pytest

from repro import obs
from repro.aging.generator import AgingConfig, build_workloads
from repro.aging.replay import age_file_system
from repro.analysis.report import render_disk_stats
from repro.cli import main
from repro.disk.model import DiskModel, DiskStats, IOKind
from repro.experiments.config import aging_config, get_preset
from repro.ffs.alloc import POLICIES
from repro.ffs.filesystem import FileSystem
from repro.ffs.params import scaled_params
from repro.obs import events as obs_events
from repro.units import KB, MB


#: A 16 MB file system aged 20 days: full enough that the home group
#: runs out and ``ffs_hashalloc`` rehashes (``alloc_fallback`` events).
SQUEEZED_PARAMS = scaled_params(16 * MB)
SQUEEZED_CONFIG = AgingConfig(params=SQUEEZED_PARAMS, days=20, seed=1996)


@pytest.fixture(scope="module")
def squeezed():
    return SQUEEZED_PARAMS, build_workloads(SQUEEZED_CONFIG)


def _exercise(model):
    """A mixed request sequence covering every stat-recording path."""
    elapsed = []
    elapsed.append(model.access(IOKind.WRITE, 0, 64 * KB))
    elapsed.append(model.access(IOKind.WRITE, 64 * KB, 64 * KB))  # lost rotation
    elapsed.append(model.access(IOKind.READ, 0, 64 * KB))
    elapsed.append(model.access(IOKind.READ, 64 * KB, 64 * KB))   # buffer path
    elapsed.append(model.access(IOKind.READ, 20 * MB, 8 * KB))    # long seek
    model.idle(5.0)
    elapsed.append(model.access(IOKind.WRITE, 40 * MB, 8 * KB))
    return elapsed


class TestNoopPathBitIdentical:
    """The regression the tentpole promises: telemetry off = seed behaviour."""

    def test_access_results_identical_disabled_vs_enabled(self):
        assert not obs.enabled()
        disabled = _exercise(DiskModel(initial_angle=0.3))
        with obs.session():
            enabled = _exercise(DiskModel(initial_angle=0.3))
        # Bit-identical, not approximately equal: the instrumentation
        # must never touch the timing arithmetic.
        assert disabled == enabled

    def test_stats_identical_disabled_vs_enabled(self):
        model_off = DiskModel(initial_angle=0.3)
        _exercise(model_off)
        with obs.session():
            model_on = DiskModel(initial_angle=0.3)
            _exercise(model_on)
        assert model_off.stats.to_dict() == model_on.stats.to_dict()

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_replay_identical_disabled_vs_enabled(self, squeezed, policy):
        """Telemetry never selects allocator code: every policy places
        every block, tail and indirect block the same traced or not."""
        params, workloads = squeezed
        plain = age_file_system(workloads.reconstructed, params=params,
                                policy=policy)
        with obs.session(events=obs.EventLog()):
            traced = age_file_system(workloads.reconstructed, params=params,
                                     policy=policy)
        assert plain.timeline.final_score() == traced.timeline.final_score()
        assert plain.creates == traced.creates
        assert _layout(plain.fs) == _layout(traced.fs)


def _layout(fs):
    return [(i.ino, i.blocks, i.tail, i.indirect_blocks) for i in fs.files()]


class TestDiskStatsFacade:
    def test_to_dict_has_all_fields_in_order(self):
        model = DiskModel()
        _exercise(model)
        d = model.stats.to_dict()
        assert tuple(d) == DiskStats.FIELDS
        assert d["reads"] == model.stats.reads == 3
        assert d["writes"] == model.stats.writes == 3
        assert d["busy_ms"] == pytest.approx(model.stats.busy_ms)

    def test_render_disk_stats_table(self):
        model = DiskModel()
        _exercise(model)
        text = render_disk_stats(model.stats.to_dict())
        assert "requests read" in text
        assert "lost rotations" in text
        assert "aggregate throughput" in text

    def test_global_mirror_aggregates_across_models(self):
        with obs.session() as (registry, _tracer):
            _exercise(DiskModel())
            _exercise(DiskModel())
        snap = registry.snapshot()
        assert snap["disk.reads"]["value"] == 6
        assert snap["disk.service_time_ms"]["count"] == 12
        assert snap["disk.seek_time_ms"]["count"] >= 2
        assert snap["disk.rot_wait_ms"]["count"] >= 2

    def test_per_model_stats_not_polluted_by_globals(self):
        with obs.session():
            first = DiskModel()
            _exercise(first)
            second = DiskModel()
            assert second.stats.reads == 0
            first.reset()
            assert first.stats.writes == 0


def _aged_telemetry(params, workload, policy):
    """Age ``workload`` under a session with an event log; return the
    allocator counters and the ``alloc_fallback`` payloads."""
    log = obs.EventLog()
    with obs.session(events=log) as (registry, _tracer):
        age_file_system(workload, params=params, policy=policy)
    counters = {
        name: data["value"]
        for name, data in registry.snapshot().items()
        if name.startswith(("alloc.", "realloc.")) and data["type"] == "counter"
    }
    fallbacks = log.by_type(obs_events.ALLOC_FALLBACK)
    assert {row["policy"] for row in fallbacks} <= {policy}
    return counters, [
        (row["ino"], row["from_cg"], row["to_cg"], row["groups_tried"])
        for row in fallbacks
    ]


def _fallbacks(*inos):
    """Rehashes from group 1 that found space in group 0, second try."""
    return [(ino, 1, 0, 2) for ino in inos]


#: Allocator counters and fallback payloads of a traced aging, recorded
#: when traced runs still allocated one block per policy call.  The
#: batched path must count exactly what that path counted.
GOLDEN_ALLOC_TELEMETRY = {
    ("tiny", "ffs"): ({
        "alloc.ffs.data_blocks": 4172,
        "alloc.ffs.fallbacks": 0,
        "alloc.ffs.indirect_blocks": 76,
        "alloc.ffs.tail_allocs": 1420,
        "alloc.ffs.windows_fragmented": 69,
        "alloc.ffs.windows_seen": 382,
    }, []),
    ("tiny", "realloc"): ({
        "alloc.realloc.data_blocks": 4172,
        "alloc.realloc.fallbacks": 0,
        "alloc.realloc.indirect_blocks": 76,
        "alloc.realloc.tail_allocs": 1420,
        "realloc.attempts": 177,
        "realloc.blocks_moved": 738,
        "realloc.failures": 19,
        "realloc.relocations": 158,
    }, []),
    ("squeezed", "ffs"): ({
        "alloc.ffs.data_blocks": 3618,
        "alloc.ffs.fallbacks": 30,
        "alloc.ffs.indirect_blocks": 62,
        "alloc.ffs.tail_allocs": 938,
        "alloc.ffs.windows_fragmented": 86,
        "alloc.ffs.windows_seen": 392,
    }, _fallbacks(
        117, 654, 654, 657, 657, 655, 658, 660, 661, 653, 661, 662, 663,
        665, 659, 666, 668, 666, 669, 676, 671, 674, 676, 677, 679, 681,
        683, 684, 686, 687,
    )),
    ("squeezed", "realloc"): ({
        "alloc.realloc.data_blocks": 3618,
        "alloc.realloc.fallbacks": 30,
        "alloc.realloc.indirect_blocks": 62,
        "alloc.realloc.tail_allocs": 938,
        "realloc.attempts": 127,
        "realloc.blocks_moved": 560,
        "realloc.failures": 26,
        "realloc.relocations": 101,
    }, _fallbacks(
        117, 654, 654, 657, 657, 655, 658, 660, 661, 653, 661, 662, 663,
        665, 659, 666, 668, 666, 669, 676, 671, 674, 676, 671, 672, 679,
        681, 683, 684, 686,
    )),
}


class TestAllocatorTelemetryGolden:
    @pytest.fixture(scope="class")
    def tiny(self):
        return get_preset("tiny").params, build_workloads(aging_config("tiny"))

    @pytest.mark.parametrize("case", sorted(GOLDEN_ALLOC_TELEMETRY), ids="-".join)
    def test_counters_and_fallback_payloads(self, request, case):
        params, workloads = request.getfixturevalue(case[0])
        assert _aged_telemetry(params, workloads.reconstructed, case[1]) == \
            GOLDEN_ALLOC_TELEMETRY[case]

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_data_blocks_counts_batched_and_single_blocks(self, policy):
        """The first block of a file is allocated alone and the rest of
        its window as one run; the counter sees all of them."""
        with obs.session() as (registry, _tracer):
            fs = FileSystem(scaled_params(24 * MB), policy=policy)
            fs.create_file(fs.make_directory("d"), 56 * KB)
        assert len(fs.files()[0].blocks) == 7
        assert registry.snapshot()[f"alloc.{policy}.data_blocks"]["value"] == 7


class TestCopyUnderSession:
    def test_copy_shares_handles_and_credits_the_live_registry(self):
        with obs.session(events=obs.EventLog()) as (registry, _tracer):
            fs = FileSystem(scaled_params(24 * MB), policy="realloc")
            d = fs.make_directory("d")
            twin = copy.deepcopy(fs)
            assert twin.policy._m is fs.policy._m is registry
            assert twin.policy._e is fs.policy._e is not None
            # Shred the twin's rotor area so the new file's blocks land
            # scattered and realloc has a fragmented window to gather.
            cg = twin.sb.cgs[d.cg]
            taken = [cg.alloc_block() for _ in range(40)]
            for block in taken[::2]:
                cg.free_block_range(block, 1)
            cg.rotor = taken[0] - cg.base
            twin.create_file(d, 56 * KB)
            snapshot = registry.snapshot()
        assert snapshot["alloc.realloc.data_blocks"]["value"] == 7
        assert snapshot["realloc.attempts"]["value"] >= 1
        assert twin.policy.relocation_attempts >= 1
        assert fs.policy.relocation_attempts == 0  # tallies copy by value


class TestReplayAndAllocatorTelemetry:
    @pytest.fixture(scope="class")
    def captured(self):
        params = scaled_params(24 * MB)
        workloads = build_workloads(AgingConfig(params=params, days=3, seed=7))
        with obs.session() as (registry, tracer):
            age_file_system(workloads.reconstructed, params=params,
                            policy="realloc", label="aged")
        return registry.snapshot(), tracer.rows()

    def test_alloc_counters(self, captured):
        snapshot, _rows = captured
        assert snapshot["alloc.realloc.data_blocks"]["value"] > 0
        assert snapshot["alloc.realloc.tail_allocs"]["value"] > 0
        assert "alloc.realloc.fallbacks" in snapshot

    def test_realloc_counters_and_distance_histogram(self, captured):
        snapshot, _rows = captured
        attempts = snapshot["realloc.attempts"]["value"]
        moved = snapshot["realloc.relocations"]["value"]
        failed = snapshot["realloc.failures"]["value"]
        assert attempts == moved + failed
        assert moved > 0
        assert snapshot["realloc.distance_blocks"]["count"] == moved
        assert snapshot["realloc.blocks_moved"]["value"] >= 2 * moved

    def test_replay_counters(self, captured):
        snapshot, _rows = captured
        assert snapshot["replay.ops"]["value"] > 0
        assert snapshot["replay.creates"]["value"] > 0
        assert 0.0 < snapshot["replay.aged.final_score"]["value"] <= 1.0

    def test_per_day_spans(self, captured):
        _snapshot, rows = captured
        days = [r for r in rows if r["name"] == "replay.day"]
        assert len(days) >= 3
        assert [d["attrs"]["day"] for d in days] == list(range(len(days)))
        assert all(d["sim_elapsed"] == 1 for d in days)
        assert sum(d["attrs"]["ops"] for d in days) == \
            snapshot_value(_snapshot, "replay.ops")


def snapshot_value(snapshot, name):
    return snapshot[name]["value"]


class TestCliTelemetry:
    def test_metrics_and_trace_files(self, tmp_path, capsys):
        run_file = tmp_path / "run.jsonl"
        assert main(["experiment", "fig1", "--preset", "tiny",
                     "--run", str(run_file)]) == 0
        assert not obs.enabled()  # session restored
        lines = [json.loads(line) for line in run_file.read_text().splitlines()]
        header, metrics = lines[0], lines[-1]
        assert header["row"] == "header"
        assert header["schema"].startswith("repro.obs.manifest/")
        assert header["command"] == "experiment"
        assert header["config"]["name"] == "fig1"
        assert header["config"]["preset"] == "tiny"
        assert header["wall_seconds"] > 0
        assert metrics["row"] == "metrics" and metrics["metrics"]
        rows = [r for r in lines if r["row"] == "span"]
        assert rows  # at least the root span
        root = [r for r in rows if r["name"] == "cli.experiment"]
        assert len(root) == 1 and root[0]["parent_id"] is None
        assert "[obs] wrote run file" in capsys.readouterr().err

    def test_stats_renders_manifest(self, tmp_path, capsys):
        run_file = tmp_path / "run.jsonl"
        main(["experiment", "fig1", "--preset", "tiny",
              "--run", str(run_file)])
        capsys.readouterr()
        assert main(["stats", str(run_file)]) == 0
        out = capsys.readouterr().out
        assert "run: repro-ffs experiment" in out
        assert "preset=tiny" in out

    def test_freespace_json(self, capsys):
        assert main(["freespace", "--preset", "tiny", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["policy"] == "ffs"
        assert data["stats"]["free_blocks"] > 0
        assert all(len(pair) == 2 for pair in data["run_length_histogram"])

    def test_experiment_all_streams_progress(self, capsys):
        assert main(["experiment", "all", "--preset", "tiny"]) == 0
        captured = capsys.readouterr()
        assert "[obs] table1:" in captured.err
        assert "[obs] lfs:" in captured.err
        assert "Figure 2" in captured.out

    def test_stats_rejects_non_manifest(self, tmp_path, capsys):
        bogus = tmp_path / "x.json"
        bogus.write_text('{"schema": "other/v9"}')
        assert main(["stats", str(bogus)]) == 2
        err = capsys.readouterr().err
        assert "repro-ffs stats: x.json: line 1: not a run manifest" in err
        assert "Traceback" not in err
