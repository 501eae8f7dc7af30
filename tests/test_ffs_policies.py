"""Unit tests for the allocation policies (original and realloc)."""

import pytest

from repro.ffs.alloc import POLICIES, make_policy
from repro.ffs.alloc.original import OriginalPolicy
from repro.ffs.alloc.policy import run_is_contiguous
from repro.ffs.alloc.realloc import ReallocPolicy
from repro.ffs.filesystem import FileSystem
from repro.ffs.params import scaled_params
from repro.units import KB, MB


@pytest.fixture
def params():
    return scaled_params(24 * MB)


class TestRegistry:
    def test_known_policies(self):
        assert set(POLICIES) == {
            "ffs",
            "realloc",
            "realloc-eager",
            "ffs-smart",
        }

    def test_make_policy(self, params):
        fs = FileSystem(params)
        assert isinstance(make_policy("ffs", fs.sb), OriginalPolicy)
        assert isinstance(make_policy("realloc", fs.sb), ReallocPolicy)

    def test_unknown_policy_rejected(self, params):
        fs = FileSystem(params)
        with pytest.raises(ValueError):
            make_policy("lfs", fs.sb)


class TestRunIsContiguous:
    def test_empty_and_single(self):
        assert run_is_contiguous([])
        assert run_is_contiguous([5])

    def test_contiguous(self):
        assert run_is_contiguous([5, 6, 7])

    def test_gap(self):
        assert not run_is_contiguous([5, 7])

    def test_descending(self):
        assert not run_is_contiguous([7, 6])


class TestOriginalPolicyBehaviour:
    """The behaviour the paper criticises: the fallback takes the next
    free block regardless of the free run it sits in."""

    def test_takes_single_free_block_over_nearby_cluster(self, params):
        fs = FileSystem(params, policy="ffs")
        d = fs.make_directory("d")
        cg = fs.sb.cgs[d.cg]
        # Build: [hole of 1] [allocated] [cluster of 10] near the rotor.
        base = cg.alloc_block()       # rotor anchor
        hole = cg.alloc_block()       # will become the 1-block hole
        plug = cg.alloc_block()       # stays allocated
        cg.free_block_range(hole, 1)
        # Preference is the hole's predecessor: taken, so the fallback
        # scans forward and lands in the 1-block hole.
        got = fs.policy.alloc_data_block(fs.inode(d.ino), base)
        assert got == hole

    def test_no_reallocation_hooks(self, params):
        fs = FileSystem(params, policy="ffs")
        d = fs.make_directory("d")
        ino = fs.create_file(d, 56 * KB)
        # Fragment the preferred region first, then check nothing moved:
        blocks = fs.inode(ino).blocks
        assert len(blocks) == 7


class TestReallocPolicyBehaviour:
    def test_fragmented_window_is_relocated(self, params):
        fs = FileSystem(params, policy="realloc")
        d = fs.make_directory("d")
        cg = fs.sb.cgs[d.cg]
        # Shred the rotor area: allocate 40 blocks, free every other
        # one, and point the rotor back at the holes so the new file's
        # blocks land scattered before the policy gathers them.
        taken = [cg.alloc_block() for _ in range(40)]
        for block in taken[::2]:
            cg.free_block_range(block, 1)
        cg.rotor = taken[0] - cg.base
        ino = fs.create_file(d, 56 * KB)
        blocks = fs.inode(ino).blocks
        assert run_is_contiguous(blocks)
        assert fs.policy.relocations >= 1

    def test_contiguous_window_left_alone(self, params):
        fs = FileSystem(params, policy="realloc")
        d = fs.make_directory("d")
        ino = fs.create_file(d, 56 * KB)
        assert fs.policy.relocation_attempts == 0
        assert run_is_contiguous(fs.inode(ino).blocks)

    def test_failure_keeps_fragmented_layout(self, params):
        fs = FileSystem(params, policy="realloc", enforce_reserve=False)
        d = fs.make_directory("d")
        cg = fs.sb.cgs[d.cg]
        # Fill the group so no run of >= 2 exists (every other block,
        # skipping anything already taken, e.g. the directory's block).
        local_start = params.metadata_blocks_per_cg
        for local in range(local_start, cg.nblocks, 2):
            if cg.bitmap.block_is_free(local):
                cg.alloc_block_at(cg.base + local)
        before_fail = fs.policy.relocation_failures
        ino = fs.create_file(d, 32 * KB)
        inode = fs.inode(ino)
        assert fs.policy.relocation_failures > before_fail
        assert len(inode.blocks) == 4
        assert not run_is_contiguous(inode.blocks)

    def test_two_block_quirk_no_realloc_for_unfilled_second_block(self, params):
        """Files that use two blocks but do not fill the second are not
        reallocated (Section 4's quirk)."""
        fs = FileSystem(params, policy="realloc")
        d = fs.make_directory("d")
        cg = fs.sb.cgs[d.cg]
        taken = [cg.alloc_block() for _ in range(20)]
        for block in taken[::2]:
            cg.free_block_range(block, 1)
        cg.rotor = taken[0] - cg.base
        before = fs.policy.relocation_attempts
        ino = fs.create_file(d, 15 * KB + 512)  # two blocks, second not full
        from repro.ffs.alloc.policy import run_is_contiguous as contiguous

        assert not contiguous(fs.inode(ino).blocks)  # it *is* fragmented
        assert fs.policy.relocation_attempts == before  # but never gathered

    def test_exactly_16kb_is_reallocated(self, params):
        fs = FileSystem(params, policy="realloc")
        d = fs.make_directory("d")
        cg = fs.sb.cgs[d.cg]
        taken = [cg.alloc_block() for _ in range(20)]
        for block in taken[::2]:
            cg.free_block_range(block, 1)
        cg.rotor = taken[0] - cg.base
        ino = fs.create_file(d, 16 * KB)
        assert run_is_contiguous(fs.inode(ino).blocks)
        assert fs.policy.relocations >= 1

    def test_relocation_counters_consistent(self, params):
        fs = FileSystem(params, policy="realloc")
        d = fs.make_directory("d")
        cg = fs.sb.cgs[d.cg]
        taken = [cg.alloc_block() for _ in range(60)]
        for block in taken[::2]:
            cg.free_block_range(block, 1)
        for size in (24 * KB, 56 * KB, 120 * KB):
            fs.create_file(d, size)
        policy = fs.policy
        assert (
            policy.relocations + policy.relocation_failures
            == policy.relocation_attempts
        )


class TestIndirectSwitch:
    def test_file_changes_group_at_indirect(self, params):
        for policy in ("ffs", "realloc"):
            fs = FileSystem(params, policy=policy)
            d = fs.make_directory(f"d-{policy}")
            ino = fs.create_file(d, 200 * KB)
            inode = fs.inode(ino)
            cg_first = params.cg_of_block(inode.blocks[0])
            cg_13th = params.cg_of_block(inode.blocks[12])
            assert cg_first == d.cg
            assert cg_13th != cg_first
            assert len(inode.indirect_blocks) == 1
            assert params.cg_of_block(inode.indirect_blocks[0]) == cg_13th

    def test_realloc_does_not_pull_blocks_across_indirect(self, params):
        """The mandatory 13th-block seek survives reallocation."""
        fs = FileSystem(params, policy="realloc")
        d = fs.make_directory("d")
        ino = fs.create_file(d, 200 * KB)
        inode = fs.inode(ino)
        assert (
            params.cg_of_block(inode.blocks[11])
            != params.cg_of_block(inode.blocks[12])
        )
