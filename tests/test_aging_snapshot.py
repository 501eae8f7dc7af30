"""Unit tests for the synthetic source-activity model."""

import hashlib
import math
from array import array
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aging.generator import build_workloads
from repro.aging.snapshot import (
    ActivityLevels,
    SourceActivityModel,
    cumulative_weights,
)
from repro.aging.workload import APPEND, CREATE, DELETE
from repro.errors import SimulationError
from repro.experiments.config import aging_config
from repro.ffs.params import scaled_params
from repro.rng import Random
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


class TestEligibility:
    """A file is eligible for deletion or modification on day ``d`` when
    its ctime is before ``d``.  A modify stamps its rewrite at
    ``when + 1e-4``, which can round to exactly ``day + 1.0``; that file
    is not eligible until the day after next."""

    def test_ctime_on_the_day_boundary_waits_a_day(self, params):
        model = SourceActivityModel(params, days=4, seed=1)
        directory = "dir000_0"
        assert model._eligible_on(0) == 0
        early = model._create(0.5, directory, 4 * KB).file_id
        model._create(1.0, directory, 4 * KB)
        assert model._eligible_on(1) == 1
        rng = model.streams.get("daily")
        for _ in range(20):
            assert model._pick_victim_run(rng, 1, 5) == [early]
        assert model._eligible_on(2) == 2

    def test_delete_leaves_the_running_count(self, params):
        model = SourceActivityModel(params, days=4, seed=1)
        old = model._create(0.5, "dir000_0", 4 * KB).file_id
        model._create(1.0, "dir000_0", 4 * KB)
        assert model._eligible_on(1) == 1
        model._delete(old, 1.5)
        assert model._eligible_on(2) == 1


class TestDirectoryPick:
    """A directory pick is ``Random.choices``' own arithmetic: the same
    pick from the same generator state, leaving the same state."""

    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.floats(1e-9, 1e9), min_size=1, max_size=40),
        st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_draws_what_choices_draws(self, params, seed, weights, picks):
        model = SourceActivityModel(params, days=1, seed=seed)
        model._dirs = dirs = [f"d{i}" for i in range(len(weights))]
        model._dir_cum_weights, model._dir_total = cumulative_weights(weights)
        cum = list(accumulate(weights))
        ours, theirs = Random(seed), Random(seed)
        for _ in range(picks):
            expected = theirs.choices(dirs, cum_weights=cum, k=1)[0]
            assert model._pick_directory(ours) == expected
            assert ours.getstate() == theirs.getstate()

    @pytest.mark.parametrize(
        "weights", [[0.0], [1.0, -1.0], [1.0, math.inf], [math.nan]]
    )
    def test_refuses_what_choices_refuses(self, weights):
        with pytest.raises(ValueError):
            Random(0).choices(range(len(weights)), cum_weights=weights)
        with pytest.raises(ValueError):
            cumulative_weights(weights)


def _workload_digest(workload):
    """SHA-256 of a workload's columns and directory table."""
    digest = hashlib.sha256(workload.op)
    for column in (
        workload.time, workload.file_id, workload.size, workload.src_ino,
    ):
        digest.update(column.tobytes())
    digest.update(array("q", workload.dir_id).tobytes())
    digest.update("\n".join(workload.dir_table).encode())
    digest.update(repr(workload.day_slices).encode())
    return digest.hexdigest()


def _snapshots_digest(snapshots):
    """SHA-256 of every snapshot's records, in snapshot order."""
    digest = hashlib.sha256()
    for snap in snapshots:
        digest.update(repr((snap.day, [
            (r.ino, r.size, r.ctime, r.directory)
            for r in snap.files.values()
        ])).encode())
    return digest.hexdigest()


#: ``build_workloads`` output per preset: (ground truth, reconstructed,
#: the source model's nightly snapshots).  Recorded before the source
#: model and the NFS fold were flattened; any change that moves one
#: changes every aging result.
BUILD_GOLDEN = {
    "tiny": (
        "d2402c42ba4be5b948accf599105421afc7f6b6c8e61deca33c03c8362d4a4d5",
        "a4dbc7bdc811ffcb2cfa30eb2be05f4d4ab455d409cfb4e9c7ead73ecd55c8d6",
        "e8f50d6d92f7c5575d13583aaca91dab4a58cd0093755bae5c077e3c7d3cd614",
    ),
    "small": (
        "0a29a04f03ef6abf764ce0118e2b54df9782a12f52da205c7d4f3ea2ab5b02af",
        "a80b06feb33b375c657de0ae3be74a7302879d3f110aeb27dc6ebbe4b530e30a",
        "880745f69d747cd7876bf0d3a2e178a48de1f1f40721350185fac6566edb2f4d",
    ),
}


@pytest.mark.parametrize("preset", sorted(BUILD_GOLDEN))
def test_build_workloads_golden(preset):
    config = aging_config(preset)
    built = build_workloads(config)
    _, snapshots = SourceActivityModel(
        config.params, config.days, config.seed, config.levels
    ).generate()
    assert (
        _workload_digest(built.ground_truth),
        _workload_digest(built.reconstructed),
        _snapshots_digest(snapshots),
    ) == BUILD_GOLDEN[preset]
