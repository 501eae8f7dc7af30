"""Unit tests for the synthetic source-activity model."""

import pytest

from repro.aging.snapshot import ActivityLevels, SourceActivityModel
from repro.aging.workload import APPEND, CREATE, DELETE
from repro.errors import SimulationError
from repro.ffs.params import scaled_params
from repro.units import KB, MB


@pytest.fixture(scope="module")
def params():
    return scaled_params(24 * MB)


@pytest.fixture(scope="module")
def generated(params):
    model = SourceActivityModel(params, days=15, seed=7)
    return model.generate()


class TestGenerate:
    def test_workload_validates(self, generated):
        workload, _snapshots = generated
        workload.validate()  # raises on any pairing/order violation

    def test_one_snapshot_per_day(self, generated):
        _workload, snapshots = generated
        assert [s.day for s in snapshots] == list(range(15))

    def test_deterministic(self, params):
        a = SourceActivityModel(params, days=6, seed=3).generate()[0]
        b = SourceActivityModel(params, days=6, seed=3).generate()[0]
        assert list(a) == list(b)

    def test_seed_changes_output(self, params):
        a = SourceActivityModel(params, days=6, seed=3).generate()[0]
        b = SourceActivityModel(params, days=6, seed=4).generate()[0]
        assert list(a) != list(b)

    def test_zero_days_rejected(self, params):
        with pytest.raises(SimulationError):
            SourceActivityModel(params, days=0)


class TestUtilizationTrajectory:
    def test_starts_near_nine_percent(self, params):
        model = SourceActivityModel(params, days=15, seed=7)
        u0 = model._target_utilization(0)
        assert 0.02 <= u0 <= 0.15

    def test_never_exceeds_max(self, params):
        model = SourceActivityModel(params, days=200, seed=7)
        levels = model.levels
        for day in range(200):
            assert model._target_utilization(day) <= levels.max_utilization

    def test_reaches_plateau(self, params):
        model = SourceActivityModel(params, days=100, seed=7)
        mid = model._target_utilization(50)
        assert mid >= 0.65


class TestOperationMix:
    def test_short_lived_majority(self, generated):
        workload, snapshots = generated
        # Files in no snapshot = same-day lives; they should be most ops.
        snapshot_inos = set()
        for snap in snapshots:
            snapshot_inos.update(snap.files)
        creates = [r for r in workload if r.op == CREATE]
        short = sum(
            1
            for r in creates
            if not any(r.src_ino in s.files and s.files[r.src_ino].ctime == r.time
                       for s in snapshots)
        )
        assert short > len(creates) * 0.4

    def test_large_files_are_chunked(self, params):
        levels = ActivityLevels(longlived_median=256 * KB)
        model = SourceActivityModel(params, days=5, seed=11, levels=levels)
        workload, _ = model.generate()
        appends = [r for r in workload if r.op == APPEND]
        assert appends, "no chunked writes generated for large files"
        # Appends follow their create within the same day.
        by_fid = {}
        for r in workload:
            by_fid.setdefault(r.file_id, []).append(r)
        for records in by_fid.values():
            kinds = [r.op for r in records]
            if APPEND in kinds:
                assert kinds[0] == CREATE
                times = [r.time for r in records if r.op != DELETE]
                assert times == sorted(times)
                assert int(times[0]) == int(times[-1])

    def test_bytes_accounting_vs_snapshot(self, generated, params):
        workload, snapshots = generated
        # Live bytes computed from the workload equal the last snapshot.
        live = {}
        for r in workload:
            if r.op == CREATE:
                live[r.file_id] = r.size
            elif r.op == APPEND:
                live[r.file_id] += r.size
            else:
                live.pop(r.file_id)
        assert sum(live.values()) == sum(
            f.size for f in snapshots[-1].files.values()
        )

    def test_inode_reuse_happens(self, generated):
        workload, _ = generated
        seen = {}
        reused = 0
        for r in workload:
            if r.op == CREATE:
                reused += r.src_ino in seen
                seen[r.src_ino] = True
        assert reused > 0


class TestFragsFor:
    def test_includes_indirect_blocks(self, params):
        model = SourceActivityModel(params, days=2, seed=1)
        fpb = params.frags_per_block
        small = model._frags_for(96 * KB)
        large = model._frags_for(104 * KB)
        assert small == 12 * fpb
        assert large == 13 * fpb + fpb  # data + one indirect block

    def test_tail_fragments(self, params):
        model = SourceActivityModel(params, days=2, seed=1)
        assert model._frags_for(3 * KB) == 3
        assert model._frags_for(0) == 0
