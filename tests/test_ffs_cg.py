"""Unit tests for cylinder groups (block, cluster, fragment, inode ops)."""

import pytest

from repro.errors import ConsistencyError, OutOfSpaceError
from repro.ffs.cg import CylinderGroup
from repro.ffs.params import scaled_params
from repro.units import MB


@pytest.fixture
def params():
    return scaled_params(24 * MB)


@pytest.fixture
def cg(params):
    return CylinderGroup(params, 0)


@pytest.fixture
def cg1(params):
    return CylinderGroup(params, 1)


class TestConstruction:
    def test_metadata_blocks_reserved(self, cg, params):
        for local in range(params.metadata_blocks_per_cg):
            assert not cg.bitmap.block_is_free(local)
        assert cg.free_blocks == params.blocks_per_cg - params.metadata_blocks_per_cg

    def test_bad_index_rejected(self, params):
        with pytest.raises(ValueError):
            CylinderGroup(params, params.ncg)

    def test_second_group_base(self, cg1, params):
        assert cg1.base == params.blocks_per_cg

    def test_owns_block(self, cg, cg1, params):
        assert cg.owns_block(0)
        assert not cg.owns_block(params.blocks_per_cg)
        assert cg1.owns_block(params.blocks_per_cg)


class TestBlockAllocation:
    def test_alloc_takes_preference_when_free(self, cg):
        pref = cg.base + 100
        assert cg.alloc_block(pref) == pref

    def test_alloc_falls_forward_when_pref_taken(self, cg):
        pref = cg.base + 100
        cg.alloc_block(pref)
        assert cg.alloc_block(pref) == pref + 1

    def test_alloc_without_pref_uses_rotor(self, cg, params):
        first = cg.alloc_block()
        second = cg.alloc_block()
        assert second == first + 1

    def test_free_block_roundtrip(self, cg):
        block = cg.alloc_block()
        before = cg.free_blocks
        cg.free_block(block)
        assert cg.free_blocks == before + 1

    def test_free_unallocated_rejected(self, cg):
        with pytest.raises(ConsistencyError):
            cg.free_block(cg.base + 500)

    def test_exhaustion_raises(self, params):
        cg = CylinderGroup(params, 0)
        for _ in range(cg.free_blocks):
            cg.alloc_block()
        with pytest.raises(OutOfSpaceError):
            cg.alloc_block()

    def test_alloc_block_at(self, cg):
        cg.alloc_block_at(cg.base + 42)
        with pytest.raises(OutOfSpaceError):
            cg.alloc_block_at(cg.base + 42)

    def test_foreign_block_rejected(self, cg, params):
        with pytest.raises(ValueError):
            cg.free_block(params.blocks_per_cg + 5)


class TestClusterAllocation:
    def test_find_and_alloc_cluster(self, cg):
        start = cg.find_free_cluster(7)
        assert start is not None
        cg.alloc_cluster(start, 7)
        for i in range(7):
            assert not cg.bitmap.block_is_free(start - cg.base + i)

    def test_cluster_continuing_pref(self, cg):
        block = cg.alloc_block()
        start = cg.find_free_cluster(3, pref=block + 1)
        assert start == block + 1

    def test_cluster_not_found_when_fragmented(self, params):
        cg = CylinderGroup(params, 0)
        # Allocate every other block: no run of 2 remains.
        base = params.metadata_blocks_per_cg
        for local in range(base, cg.nblocks, 2):
            cg.alloc_block_at(cg.base + local)
        assert cg.find_free_cluster(2) is None

    def test_alloc_cluster_overlapping_taken_rejected(self, cg):
        block = cg.alloc_block()
        with pytest.raises(OutOfSpaceError):
            cg.alloc_cluster(block, 2)

    def test_rotor_moves_to_cluster_end(self, cg):
        start = cg.find_free_cluster(4)
        cg.alloc_cluster(start, 4)
        nxt = cg.alloc_block()
        assert nxt == start + 4


class TestFragAllocation:
    def test_exact_pref_hit(self, cg):
        block = cg.alloc_block()
        cg.free_block(block)  # now wholly free again
        where = cg.alloc_frags(3, pref=(block, 0))
        assert where == (block, 0)

    def test_tail_extends_in_place(self, cg):
        block, offset = cg.alloc_frags(2, None)
        assert cg.extend_frags(block, offset, 2, 5)
        assert cg.bitmap.free_in_block(block - cg.base) == 3

    def test_extend_fails_when_blocked(self, cg, params):
        block, offset = cg.alloc_frags(2, None)
        # Take the next frag so in-place extension is impossible.
        cg.bitmap.alloc_run(block - cg.base, offset + 2, 1)
        assert not cg.extend_frags(block, offset, 2, 4)

    def test_extend_past_block_end_fails(self, cg):
        block, offset = cg.alloc_frags(7, None)
        assert offset == 0
        assert not cg.extend_frags(block, offset, 7, 9)

    def test_first_fit_prefers_nearby_partial(self, cg):
        # Preference block is fully taken; the next block is a partial
        # donor with 5 free frags — first fit lands in the donor.
        pref_block = cg.base + 99
        cg.alloc_block_at(pref_block)
        donor = cg.base + 100
        cg.alloc_block_at(donor)
        cg.free_frag_run(donor, 3, 5)
        got_block, got_off = cg.alloc_frags(4, pref=(pref_block, 0))
        assert got_block == donor
        assert got_off == 3

    def test_whole_free_block_split_when_closer(self, cg):
        got_block, got_off = cg.alloc_frags(4, pref=(cg.base + 200, 0))
        assert got_block == cg.base + 200
        assert got_off == 0

    def test_frag_counts(self, cg, params):
        before = cg.free_frags
        cg.alloc_frags(5, None)
        assert cg.free_frags == before - 5

    def test_free_frag_run_returns_block_to_runmap(self, cg):
        """Freeing a block's last fragments makes it a free block again."""
        before = cg.free_blocks
        block, offset = cg.alloc_frags(3, None)
        assert cg.free_blocks == before - 1
        cg.free_frag_run(block, offset, 3)
        assert cg.bitmap.block_is_free(block - cg.base)
        assert cg.free_blocks == before

    def test_whole_block_frag_request_rejected(self, cg, params):
        with pytest.raises(ValueError):
            cg.alloc_frags(params.frags_per_block, None)

    def test_exhaustion_raises(self, params):
        cg = CylinderGroup(params, 0)
        while True:
            try:
                cg.alloc_block()
            except OutOfSpaceError:
                break
        with pytest.raises(OutOfSpaceError):
            cg.alloc_frags(1, None)


class TestInodes:
    def test_alloc_lowest_first(self, cg, params):
        assert cg.alloc_inode() == 0
        assert cg.alloc_inode() == 1

    def test_second_group_numbering(self, cg1, params):
        assert cg1.alloc_inode() == params.inodes_per_cg

    def test_free_and_reuse(self, cg):
        first = cg.alloc_inode()
        cg.alloc_inode()
        cg.free_inode(first)
        assert cg.alloc_inode() == first

    def test_dir_counting(self, cg):
        ino = cg.alloc_inode(is_dir=True)
        assert cg.ndirs == 1
        cg.free_inode(ino, is_dir=True)
        assert cg.ndirs == 0

    def test_double_free_rejected(self, cg):
        ino = cg.alloc_inode()
        cg.free_inode(ino)
        with pytest.raises(ConsistencyError):
            cg.free_inode(ino)

    def test_exhaustion(self, params):
        cg = CylinderGroup(params, 0)
        for _ in range(params.inodes_per_cg):
            cg.alloc_inode()
        with pytest.raises(OutOfSpaceError):
            cg.alloc_inode()
