"""Unit tests for snapshot differencing (workload reconstruction)."""

import dataclasses

import pytest

from repro.aging.diff import (
    SnapshotDiffer,
    diff_snapshots,
    directory_activity,
    merge_days,
)
from repro.aging.generator import build_workloads
from repro.aging.nfstrace import (
    ShortLivedFolder,
    SyntheticNFSTrace,
    integrate_short_lived,
)
from repro.aging.snapshot import FileRecord, Snapshot, SourceActivityModel
from repro.aging.workload import CREATE, DELETE, WorkloadRow
from repro.experiments.config import aging_config
from repro.units import KB


def snap(day, files):
    return Snapshot(day=day, files={f.ino: f for f in files})


def fr(ino, size=4 * KB, ctime=0.5, d="home"):
    return FileRecord(ino=ino, size=size, ctime=ctime, directory=d)


class TestCreates:
    def test_initial_snapshot_files_become_creates(self):
        days = diff_snapshots([snap(0, [fr(1, ctime=0.3), fr(2, ctime=0.6)])])
        ops = days[0]
        assert sorted(r.src_ino for r in ops) == [1, 2]
        assert all(r.op == CREATE for r in ops)

    def test_create_time_is_ctime(self):
        days = diff_snapshots([snap(0, [fr(1, ctime=0.31)])])
        assert days[0][0].time == pytest.approx(0.31)

    def test_stale_ctime_clamped_into_day(self):
        days = diff_snapshots([snap(0, []), snap(1, [fr(1, ctime=0.2)])])
        (op,) = days[1]
        assert 1.0 < op.time < 2.0

    def test_size_carried(self):
        days = diff_snapshots([snap(0, [fr(1, size=20 * KB)])])
        assert days[0][0].size == 20 * KB


class TestDeletes:
    def test_missing_file_becomes_delete(self):
        days = diff_snapshots(
            [snap(0, [fr(1, ctime=0.5)]), snap(1, [fr(2, ctime=1.5)])]
        )
        ops = days[1]
        deletes = [r for r in ops if r.op == DELETE]
        assert len(deletes) == 1
        assert deletes[0].src_ino == 1

    def test_delete_time_within_activity_span(self):
        days = diff_snapshots(
            [
                snap(0, [fr(1, ctime=0.5)]),
                snap(1, [fr(2, ctime=1.3), fr(3, ctime=1.7)]),
            ]
        )
        delete = next(r for r in days[1] if r.op == DELETE)
        assert 1.3 <= delete.time <= 1.7

    def test_delete_times_deterministic_per_seed(self):
        snaps = [snap(0, [fr(1, ctime=0.5)]), snap(1, [])]
        t1 = diff_snapshots(snaps, seed=5)[1][0].time
        t2 = diff_snapshots(snaps, seed=5)[1][0].time
        t3 = diff_snapshots(snaps, seed=6)[1][0].time
        assert t1 == t2
        assert t1 != t3


class TestModifies:
    def test_ctime_change_becomes_delete_plus_create(self):
        days = diff_snapshots(
            [
                snap(0, [fr(1, ctime=0.5, size=10 * KB)]),
                snap(1, [fr(1, ctime=1.5, size=12 * KB)]),
            ]
        )
        ops = days[1]
        assert [r.op for r in sorted(ops, key=lambda r: r.time)] == [
            DELETE,
            CREATE,
        ]
        create = next(r for r in ops if r.op == CREATE)
        assert create.size == 12 * KB

    def test_unchanged_file_produces_no_ops(self):
        record = fr(1, ctime=0.5)
        days = diff_snapshots([snap(0, [record]), snap(1, [record])])
        assert days[1] == []


class TestMergeDays:
    def test_merge_validates(self):
        days = diff_snapshots(
            [snap(0, [fr(1, ctime=0.5)]), snap(1, [fr(1, ctime=1.5)])]
        )
        workload = merge_days(days)
        assert len(workload) == 3  # create, delete, re-create


class TestDirectoryActivity:
    def test_ranked_by_change_count(self):
        days = diff_snapshots(
            [
                snap(
                    0,
                    [
                        fr(1, d="busy", ctime=0.2),
                        fr(2, d="busy", ctime=0.4),
                        fr(3, d="quiet", ctime=0.6),
                    ],
                )
            ]
        )
        ranked = directory_activity(days[0])
        assert ranked[0][0] == "busy"
        assert ranked[0][1] == 2
        assert ranked[0][2] == pytest.approx(0.3)

    def test_empty_day(self):
        assert directory_activity([]) == []


def diff_deltas(snapshots, seed=0):
    """``diff_snapshots`` fed only the entries that differ between two
    snapshots, the way the source model hands them out each night."""
    differ = SnapshotDiffer(seed)
    days, old = [], {}
    for snapshot in snapshots:
        new = snapshot.files
        changes = [
            (old.get(ino), record)
            for ino, record in new.items()
            if old.get(ino) != record
        ]
        changes += [(record, None) for ino, record in old.items() if ino not in new]
        rows = differ.next_day(snapshot.day, changes)
        days.append(list(map(WorkloadRow._make, rows)))
        old = new
    return days


#: Every snapshot series the cases above diff, plus three that only
#: the delta path could get wrong.
SERIES = {
    "initial": [snap(0, [fr(1, ctime=0.3), fr(2, ctime=0.6)])],
    "stale-ctime": [snap(0, []), snap(1, [fr(1, ctime=0.2)])],
    "delete": [snap(0, [fr(1, ctime=0.5)]), snap(1, [fr(2, ctime=1.5)])],
    "delete-span": [
        snap(0, [fr(1, ctime=0.5)]),
        snap(1, [fr(2, ctime=1.3), fr(3, ctime=1.7)]),
    ],
    "delete-all": [snap(0, [fr(1, ctime=0.5)]), snap(1, [])],
    "modify": [
        snap(0, [fr(1, ctime=0.5, size=10 * KB)]),
        snap(1, [fr(1, ctime=1.5, size=12 * KB)]),
    ],
    "busy-dirs": [snap(0, [
        fr(1, d="busy", ctime=0.2),
        fr(2, d="busy", ctime=0.4),
        fr(3, d="quiet", ctime=0.6),
    ])],
    # Inode 2 deleted and re-created by another file the same day.
    "inode-reuse": [
        snap(0, [fr(1, ctime=0.2), fr(2, ctime=0.4, d="a"), fr(3, ctime=0.6)]),
        snap(1, [fr(1, ctime=0.2), fr(3, ctime=0.6), fr(2, ctime=1.5, d="b")]),
    ],
    # The very same record in both snapshots.
    "unchanged": [snap(0, [fr(1), fr(2)]), snap(1, [fr(1), fr(2)])],
    # Same size and directory, only the inode change time moved.
    "ctime-only": [
        snap(0, [fr(1, ctime=0.5), fr(2, ctime=0.7)]),
        snap(1, [fr(1, ctime=1.25), fr(2, ctime=0.7)]),
    ],
}


class TestDeltaPath:
    @pytest.mark.parametrize("name", sorted(SERIES))
    def test_changed_entries_alone_give_the_same_rows(self, name):
        for seed in (0, 5):
            assert diff_deltas(SERIES[name], seed) == diff_snapshots(
                SERIES[name], seed
            )

    def test_inode_reused_within_a_day_is_a_modify(self):
        ops = diff_deltas(SERIES["inode-reuse"])[1]
        assert [(r.op, r.src_ino, r.directory) for r in ops] == [
            (DELETE, 2, "a"),
            (CREATE, 2, "b"),
        ]
        assert ops[0].file_id != ops[1].file_id

    def test_unchanged_record_yields_nothing(self):
        assert diff_deltas(SERIES["unchanged"])[1] == []

    def test_ctime_only_change_is_a_modify(self):
        ops = diff_deltas(SERIES["ctime-only"])[1]
        assert [(r.op, r.src_ino) for r in ops] == [(DELETE, 1), (CREATE, 1)]
        assert ops[1].time == pytest.approx(1.25)


def _full_snapshot_days(config):
    """The reconstruction the long way: every nightly snapshot from
    ``generate()``, diffed in full, then folded."""
    _, snapshots = SourceActivityModel(
        config.params, config.days, config.seed, config.levels
    ).generate()
    trace = _trace(config)
    days = diff_snapshots(snapshots, seed=config.seed + 1)
    return integrate_short_lived(days, trace, seed=config.seed + 3), snapshots


def _trace(config):
    return SyntheticNFSTrace(
        seed=config.seed + 2,
        n_days=config.trace_days,
        pairs_per_day=config.levels.short_pairs_per_mb
        * config.params.actual_size_bytes / (1024 * 1024),
    )


@pytest.mark.parametrize("preset,seed", [
    ("tiny", None), ("small", None), ("tiny", 1), ("tiny", 7), ("tiny", 42),
])
def test_nightly_changes_rebuild_the_full_snapshot_rows(preset, seed):
    config = aging_config(preset)
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)
    expected, snapshots = _full_snapshot_days(config)
    model = SourceActivityModel(
        config.params, config.days, config.seed, config.levels
    )
    differ = SnapshotDiffer(seed=config.seed + 1)
    folder = ShortLivedFolder(_trace(config), seed=config.seed + 3)
    got = [
        list(map(WorkloadRow._make, folder.fold(differ.next_day(day, changes))))
        for day, _rows, changes in model.run()
    ]
    assert got == expected
    assert model.snapshot(config.days - 1) == snapshots[-1]
    built = build_workloads(config)
    assert list(built.reconstructed) == list(merge_days(expected))
