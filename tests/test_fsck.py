"""Detect → repair → clean pairing for every corruption class.

``tests/test_ffs_check.py`` proves :func:`check_filesystem` *detects*
each class of corruption; this file proves :mod:`repro.fsck` *repairs*
each of those same classes back to a verified-clean state.  Every test
here mirrors a detection test one-to-one: apply the identical
corruption, confirm the checker still fires, repair, and assert the
repaired system passes ``check_filesystem`` (``repair_filesystem``
re-runs it internally with ``verify=True``).

The property test at the bottom closes the other direction: on an
*undamaged* file system the repair pass is a byte-identical no-op.
"""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aging.replay import age_file_system
from repro.analysis.layout import optimal_pairs
from repro.errors import ConsistencyError, OutOfSpaceError
from repro.faults.injector import FaultInjector
from repro.faults.plan import sample_plans
from repro.ffs.check import check_filesystem
from repro.ffs.filesystem import FileSystem
from repro.ffs.image import (
    dump_filesystem,
    filesystem_to_document,
    load_filesystem,
    skeleton_from_document,
)
from repro.ffs.params import scaled_params
from repro.fsck import LOST_FOUND, FsckReport, repair_filesystem
from repro.units import KB, MB


@pytest.fixture
def fs():
    """The same fixture shape as tests/test_ffs_check.py."""
    params = scaled_params(24 * MB)
    fs = FileSystem(params, policy="ffs")
    d = fs.make_directory("d")
    fs.create_file(d, 40 * KB)
    fs.create_file(d, 100 * KB)
    return fs


def detect_then_repair(fs) -> FsckReport:
    """Assert the corruption is detected, repair it, prove it clean."""
    with pytest.raises(ConsistencyError):
        check_filesystem(fs)
    report = repair_filesystem(fs)  # verify=True re-runs the checker
    check_filesystem(fs)  # belt and braces: prove it from the outside
    return report


class TestRepairPairsDetection:
    """One repair test per corruption class in TestDetection."""

    def test_leaked_block(self, fs):
        """Bitmap allocation with no owner → freed by the map rebuild."""
        cg = fs.sb.cgs[0]
        cg.alloc_block()
        report = detect_then_repair(fs)
        assert report.orphaned_frags == fs.params.frags_per_block

    def test_lost_block(self, fs):
        """Owned block free in the bitmap → re-claimed by the rebuild."""
        inode = fs.files()[0]
        block = inode.blocks[0]
        fs.sb.cg_of_block(block).free_block_range(block, 1)
        report = detect_then_repair(fs)
        assert report.unrecorded_frags == fs.params.frags_per_block

    def test_double_referenced_block(self, fs):
        """Two claimants → the earlier inode wins, the later truncates."""
        a, b = sorted(fs.files(), key=lambda i: i.ino)
        b.blocks[0] = a.blocks[0]
        report = detect_then_repair(fs)
        assert report.doubly_allocated == 1
        # Truncated at the first conflicting block, size re-clamped.
        assert fs.inodes[b.ino].blocks == []
        assert fs.inodes[b.ino].size == 0
        # The earlier claimant is untouched.
        assert fs.inodes[a.ino].blocks[0] == a.blocks[0]

    def test_size_exceeding_capacity(self, fs):
        inode = fs.files()[0]
        honest = inode.size
        inode.size = honest + fs.params.block_size * 10
        report = detect_then_repair(fs)
        assert report.truncated_files == 1
        # 40 KB fills its blocks exactly, so capacity == honest size.
        assert fs.inodes[inode.ino].size == honest

    def test_directory_listing_dead_inode(self, fs):
        d = fs.directories["d"]
        d.children[99999] = None
        report = detect_then_repair(fs)
        assert report.dead_dirents == 1
        assert 99999 not in d.children

    def test_orphaned_file(self, fs):
        """A live file in no directory is reattached under lost+found."""
        inode = fs.files()[0]
        fs.directories["d"].remove(inode.ino)
        report = detect_then_repair(fs)
        assert report.orphaned_inodes == 1
        assert report.lost_found == LOST_FOUND
        assert inode.ino in fs.directories[LOST_FOUND].children

    def test_corrupted_free_count(self, fs):
        cg = fs.sb.cgs[0]
        cg.bitmap.free_frags += 5
        report = detect_then_repair(fs)
        # The inflated old count reads as space the old maps thought
        # free but inodes actually reference.
        assert report.unrecorded_frags == 5

    def test_tail_double_claim(self, fs):
        a = min(fs.files(), key=lambda i: i.ino)
        ino = fs.create_file(fs.directories["d"], 41 * KB)
        b = fs.inodes[ino]  # 5 blocks + a 1-frag tail
        assert b.tail is not None
        b.tail = (a.blocks[0], b.tail[1], b.tail[2])
        report = detect_then_repair(fs)
        assert report.doubly_allocated == 1
        assert fs.inodes[b.ino].tail is None


class TestRepairPairsPerViewDetection:
    """One repair test per desynced-view class in TestPerViewDetection.

    These corruptions leave the inode table intact and desync one
    redundant structure, so the map rebuild fixes them without any
    inode-level repair: the report may legitimately count nothing.
    """

    def test_free_in_block_count(self, fs):
        cg = fs.sb.cgs[0]
        cg.bitmap._free_in_block[0] += 1
        report = detect_then_repair(fs)
        assert report.orphaned_frags == 0  # nothing owned was touched

    def test_cg_free_blocks_total(self, fs):
        cg = fs.sb.cgs[0]
        cg.bitmap.free_blocks += 1
        detect_then_repair(fs)

    def test_inode_table_key_mismatch(self, fs):
        inode = fs.files()[0]
        fs.inodes[inode.ino + 1000] = fs.inodes.pop(inode.ino)
        report = detect_then_repair(fs)
        assert report.rekeyed_inodes == 1
        assert fs.inodes[inode.ino] is inode


class TestRepairDeterminism:
    def test_same_damage_same_repair(self, fs):
        """Repairing identical damage twice yields identical results."""
        import copy

        a, b = sorted(fs.files(), key=lambda i: i.ino)
        b.blocks[0] = a.blocks[0]
        fs.directories["d"].remove(a.ino)
        twin = copy.deepcopy(fs)
        report_a = repair_filesystem(fs)
        report_b = repair_filesystem(twin)
        assert report_a.to_dict() == report_b.to_dict()
        doc = json.dumps(filesystem_to_document(fs), sort_keys=True)
        assert doc == json.dumps(filesystem_to_document(twin), sort_keys=True)

    def test_repair_is_idempotent(self, fs):
        fs.files()[0].size += fs.params.block_size * 3
        first = repair_filesystem(fs)
        assert not first.clean()
        second = repair_filesystem(fs)
        assert second.clean()


PARAMS = scaled_params(16 * MB)

SIZES = [
    512,
    3 * KB,
    9 * KB,
    16 * KB,
    41 * KB,
    100 * KB,
    300 * KB,
]

OPS = st.lists(
    st.tuples(
        st.sampled_from(["create", "append", "delete"]),
        st.integers(min_value=0, max_value=10**6),
    ),
    max_size=40,
)


class TestNoopProperty:
    @settings(max_examples=25, deadline=None)
    @given(ops=OPS)
    def test_repair_on_undamaged_fs_is_byte_identical_noop(self, ops):
        """fsck on a clean image changes nothing, byte for byte."""
        fs = FileSystem(PARAMS, policy="ffs")
        d = fs.make_directory("d0")
        live = []
        for kind, value in ops:
            try:
                if kind == "create":
                    live.append(fs.create_file(d, SIZES[value % len(SIZES)]))
                elif kind == "append" and live:
                    fs.append(live[value % len(live)], SIZES[value % len(SIZES)])
                elif kind == "delete" and live:
                    fs.delete_file(live.pop(value % len(live)))
            except OutOfSpaceError:
                continue
        before = json.dumps(filesystem_to_document(fs), sort_keys=True)
        free_before = [cg.free_frags for cg in fs.sb.cgs]
        rotors_before = [cg.rotor for cg in fs.sb.cgs]

        report = repair_filesystem(fs)

        assert report.clean()
        assert json.dumps(filesystem_to_document(fs), sort_keys=True) == before
        assert [cg.free_frags for cg in fs.sb.cgs] == free_before
        assert [cg.rotor for cg in fs.sb.cgs] == rotors_before


class TestCrashRepairEndToEnd:
    """Seeded crash grid: inject → repair → verified clean.

    The acceptance criterion from the chaos harness, at test scale:
    every fired crash point must leave a file system that
    ``repair_filesystem`` brings back to ``check_filesystem``-clean.
    """

    def test_crash_grid_repairs_clean(self, tiny_params, aging_artifacts):
        from repro.aging.replay import age_file_system
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import sample_plans

        plans = sample_plans(1177, days=25, count=3, max_write=300)
        fired = 0
        for plan in plans:
            for policy in ("ffs", "realloc"):
                result = age_file_system(
                    aging_artifacts.reconstructed,
                    params=tiny_params,
                    policy=policy,
                    faults=FaultInjector(plan),
                )
                if not result.crashed:
                    continue
                fired += 1
                with pytest.raises(ConsistencyError):
                    # A fired crash that left zero damage is possible
                    # but the sampled grid here is known to damage.
                    check_filesystem(result.fs)
                report = repair_filesystem(result.fs)
                assert not report.clean()
                check_filesystem(result.fs)
        assert fired > 0  # the grid must actually exercise the repair


def recount(fs):
    """The layout-score pair counts of ``fs``, from scratch."""
    pairs = [optimal_pairs(i.data_block_list()) for i in fs.inodes.values()]
    return sum(o for o, _ in pairs), sum(c for _, c in pairs)


def pair_counts(fs):
    return fs.optimal_pairs, fs.countable_pairs


class TestPairCountsOffThePipeline:
    """Image loads, copies, fsck rebuilds and injected crashes make file
    systems outside the write pipeline; each leaves the pair counts
    equal to a recount (checked here without the checker, which
    recounts them too)."""

    def test_image_load_and_copy(
        self, tmp_path, tiny_params, aging_artifacts
    ):
        aged = age_file_system(
            aging_artifacts.reconstructed, params=tiny_params,
            policy="realloc",
        ).fs
        path = tmp_path / "aged.json"
        with open(path, "w") as fp:
            dump_filesystem(aged, fp)
        with open(path) as fp:
            loaded = load_filesystem(fp, verify=False)
        assert pair_counts(loaded) == recount(loaded) == pair_counts(aged)
        assert recount(aged) == pair_counts(aged)
        twin = copy.deepcopy(aged)
        assert pair_counts(twin) == pair_counts(aged)

    def test_repair(self, fs):
        a, b = fs.files()
        b.blocks[1] = a.blocks[0]  # the later claimant loses the block
        repair_filesystem(fs, verify=False)
        assert pair_counts(fs) == recount(fs)

    def test_skeleton_repair(self, fs):
        document = json.loads(json.dumps(filesystem_to_document(fs)))
        document["inodes"][-1]["blocks"].reverse()
        skeleton = skeleton_from_document(document)
        assert pair_counts(skeleton) == recount(skeleton) != recount(fs)
        repair_filesystem(skeleton, trust_maps=False, verify=False)
        assert pair_counts(skeleton) == recount(skeleton)

    def test_crashed_replay_and_its_repair(
        self, tiny_params, aging_artifacts
    ):
        damaged = 0
        for plan in sample_plans(1177, days=25, count=3, max_write=300):
            result = age_file_system(
                aging_artifacts.reconstructed, params=tiny_params,
                policy="realloc", faults=FaultInjector(plan),
            )
            if not result.crashed:
                continue
            damaged += result.crash.dropped + result.crash.torn
            assert pair_counts(result.fs) == recount(result.fs)
            repair_filesystem(result.fs, verify=False)
            assert pair_counts(result.fs) == recount(result.fs)
        assert damaged > 0  # the plans rolled block lists back
