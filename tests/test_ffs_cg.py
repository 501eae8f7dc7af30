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
        cg.free_block_range(block, 1)
        assert cg.free_blocks == before + 1

    def test_free_unallocated_rejected(self, cg):
        with pytest.raises(ConsistencyError):
            cg.free_block_range(cg.base + 500, 1)

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
            cg.free_block_range(params.blocks_per_cg + 5, 1)


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
        cg.free_block_range(block, 1)  # now wholly free again
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

    def test_run_crossing_block_boundary_rejected(self, cg):
        with pytest.raises(ValueError, match="crosses a block boundary"):
            cg.alloc_frags_at(cg.base + 100, 6, 4)
        assert cg.bitmap.block_is_free(100)

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


# ----------------------------------------------------------------------
# Error contract: every refused call names the same fault in the same
# words and leaves the group exactly as it found it.
# ----------------------------------------------------------------------

_P = scaled_params(24 * MB)
_BASE = _P.blocks_per_cg  # group 1's first block
_END = _BASE + _P.blocks_per_cg
_TAKEN = _BASE + 100  # wholly allocated
_PART = _BASE + 200  # fragments 2..4 and 6 allocated
_FREE = _BASE + 300
_INO = _P.inodes_per_cg + 5  # allocated


def _group():
    cg = CylinderGroup(_P, 1)
    cg.alloc_block_at(_TAKEN)
    cg.alloc_frags_at(_PART, 2, 3)
    cg.alloc_frags_at(_PART, 6, 1)
    cg.alloc_inode_at(_INO)
    cg.rotor = 777
    return cg


def _full_group():
    cg = CylinderGroup(_P, 1)
    data = _BASE + _P.metadata_blocks_per_cg
    cg.alloc_cluster(data, _END - data)
    while cg.nifree:
        cg.alloc_inode()
    cg.rotor = 777
    return cg


def _state(cg):
    bm = cg.bitmap
    return (
        bytes(bm._bits), bytes(bm._free_in_block), bm.free_frags,
        bm.free_blocks, cg.rotor, bytes(cg._inode_used), cg.nifree, cg.ndirs,
    )


_NOT_OURS = "block 1535 does not belong to cylinder group 1"

#: (case, group, call, exception type, message), recorded before the
#: group mutators were folded into single-pass bitmap writes.
ERROR_CONTRACT = [
    ("alloc_block_full", _full_group, lambda cg: cg.alloc_block(None),
     OutOfSpaceError, "cylinder group 1 has no free block"),
    ("alloc_block_full_pref", _full_group, lambda cg: cg.alloc_block(_FREE),
     OutOfSpaceError, "cylinder group 1 has no free block"),
    ("alloc_block_at_taken", _group, lambda cg: cg.alloc_block_at(_TAKEN),
     OutOfSpaceError, "block 1636 is not free"),
    ("alloc_block_at_partial", _group, lambda cg: cg.alloc_block_at(_PART),
     OutOfSpaceError, "block 1736 is not free"),
    ("alloc_block_at_metadata", _group, lambda cg: cg.alloc_block_at(_BASE),
     OutOfSpaceError, "block 1536 is not free"),
    ("alloc_block_at_foreign", _group,
     lambda cg: cg.alloc_block_at(_BASE - 1), ValueError, _NOT_OURS),
    ("alloc_block_at_past_end", _group, lambda cg: cg.alloc_block_at(_END),
     ValueError, "block 3072 does not belong to cylinder group 1"),
    ("free_block_range_free", _group,
     lambda cg: cg.free_block_range(_FREE, 1),
     ConsistencyError, "freeing block 1836 that is not fully allocated"),
    ("free_block_range_partial", _group,
     lambda cg: cg.free_block_range(_PART, 1),
     ConsistencyError, "freeing block 1736 that is not fully allocated"),
    ("free_block_range_free_inside", _group,
     lambda cg: cg.free_block_range(_TAKEN, 3),
     ConsistencyError, "freeing block 1637 that is not fully allocated"),
    ("free_block_range_crosses_group", _group,
     lambda cg: cg.free_block_range(_END - 2, 3),
     ValueError, "block range (3070, 3) crosses the group boundary"),
    ("free_block_range_zero", _group,
     lambda cg: cg.free_block_range(_TAKEN, 0),
     ValueError, "block range (1636, 0) crosses the group boundary"),
    ("free_block_range_negative", _group,
     lambda cg: cg.free_block_range(_TAKEN, -1),
     ValueError, "block range (1636, -1) crosses the group boundary"),
    ("free_block_range_foreign", _group,
     lambda cg: cg.free_block_range(_BASE - 1, 1), ValueError, _NOT_OURS),
    ("alloc_cluster_taken", _group,
     lambda cg: cg.alloc_cluster(_TAKEN - 2, 4),
     OutOfSpaceError, "cluster block 1636 is not free"),
    ("alloc_cluster_partial", _group,
     lambda cg: cg.alloc_cluster(_PART - 1, 3),
     OutOfSpaceError, "cluster block 1736 is not free"),
    ("alloc_cluster_crosses_group", _group,
     lambda cg: cg.alloc_cluster(_END - 2, 3),
     OutOfSpaceError, "cluster (3070, 3) crosses the group boundary"),
    ("alloc_cluster_zero", _group, lambda cg: cg.alloc_cluster(_FREE, 0),
     ValueError, "block range (300, 0) out of range 0..1535"),
    ("alloc_cluster_negative", _group, lambda cg: cg.alloc_cluster(_FREE, -1),
     ValueError, "block range (300, -1) out of range 0..1535"),
    ("alloc_cluster_foreign", _group,
     lambda cg: cg.alloc_cluster(_BASE - 1, 2), ValueError, _NOT_OURS),
    ("alloc_frags_none", _group, lambda cg: cg.alloc_frags(0, None),
     ValueError, "fragment allocations are 1..7 frags"),
    ("alloc_frags_whole_block", _group,
     lambda cg: cg.alloc_frags(8, (_FREE, 0)),
     ValueError, "fragment allocations are 1..7 frags"),
    ("alloc_frags_negative_pref_offset", _group,
     lambda cg: cg.alloc_frags(1, (_PART, -1)),
     ValueError, "fragment offset -1 out of range"),
    ("alloc_frags_full", _full_group,
     lambda cg: cg.alloc_frags(3, (_FREE, 0)),
     OutOfSpaceError, "cylinder group 1 has no free run of 3 fragments"),
    ("extend_frags_shrink", _group,
     lambda cg: cg.extend_frags(_PART, 2, 3, 3),
     ValueError, "extend_frags only grows runs"),
    ("extend_frags_foreign", _group,
     lambda cg: cg.extend_frags(_BASE - 1, 0, 1, 2), ValueError, _NOT_OURS),
    ("extend_frags_negative_offset", _group,
     lambda cg: cg.extend_frags(_PART, -3, 1, 2),
     ValueError, "fragment offset -2 out of range"),
    ("alloc_frags_at_taken", _group,
     lambda cg: cg.alloc_frags_at(_PART, 3, 2),
     OutOfSpaceError, "fragment run (1736, 3, 2) is not free"),
    ("alloc_frags_at_whole_taken", _group,
     lambda cg: cg.alloc_frags_at(_TAKEN, 0, 1),
     OutOfSpaceError, "fragment run (1636, 0, 1) is not free"),
    ("alloc_frags_at_crosses_block", _group,
     lambda cg: cg.alloc_frags_at(_FREE, 6, 4),
     ValueError, "fragment run (6, 4) crosses a block boundary"),
    ("alloc_frags_at_zero", _group,
     lambda cg: cg.alloc_frags_at(_FREE, 0, 0),
     ValueError, "fragment run (0, 0) crosses a block boundary"),
    ("alloc_frags_at_bad_offset", _group,
     lambda cg: cg.alloc_frags_at(_FREE, 8, 1),
     ValueError, "fragment offset 8 out of range"),
    ("alloc_frags_at_negative_offset", _group,
     lambda cg: cg.alloc_frags_at(_FREE, -1, 1),
     ValueError, "fragment offset -1 out of range"),
    ("alloc_frags_at_foreign", _group,
     lambda cg: cg.alloc_frags_at(_END, 0, 1),
     ValueError, "block 3072 does not belong to cylinder group 1"),
    ("free_frag_run_free", _group, lambda cg: cg.free_frag_run(_PART, 0, 2),
     ValueError, "double free: block 200 frag 0"),
    ("free_frag_run_partly_free", _group,
     lambda cg: cg.free_frag_run(_PART, 3, 3),
     ValueError, "double free: block 200 frag 5"),
    ("free_frag_run_whole_free", _group,
     lambda cg: cg.free_frag_run(_FREE, 0, 8),
     ValueError, "double free: block 300 frag 0"),
    ("free_frag_run_crosses_block", _group,
     lambda cg: cg.free_frag_run(_TAKEN, 6, 3),
     ValueError, "fragment run (6, 3) crosses a block boundary"),
    ("free_frag_run_zero", _group, lambda cg: cg.free_frag_run(_TAKEN, 0, 0),
     ValueError, "fragment run (0, 0) crosses a block boundary"),
    ("free_frag_run_bad_offset", _group,
     lambda cg: cg.free_frag_run(_TAKEN, 9, 1),
     ValueError, "fragment offset 9 out of range"),
    ("free_frag_run_foreign", _group,
     lambda cg: cg.free_frag_run(_BASE - 1, 0, 1), ValueError, _NOT_OURS),
    ("alloc_inode_full", _full_group, lambda cg: cg.alloc_inode(),
     OutOfSpaceError, "cylinder group 1 has no free inode"),
    ("alloc_inode_at_used", _group, lambda cg: cg.alloc_inode_at(_INO),
     OutOfSpaceError, "inode 773 is already in use"),
    ("alloc_inode_at_foreign", _group, lambda cg: cg.alloc_inode_at(5),
     ValueError, "inode 5 not in cylinder group 1"),
    ("free_inode_free", _group, lambda cg: cg.free_inode(_INO + 1),
     ConsistencyError, "double free of inode 774"),
    ("free_inode_foreign", _group, lambda cg: cg.free_inode(5),
     ValueError, "inode 5 not in cylinder group 1"),
    ("free_inode_dir_count", _group,
     lambda cg: cg.free_inode(_INO, is_dir=True),
     ConsistencyError, "directory count of group 1 went negative"),
]


class TestErrorContract:
    @pytest.mark.parametrize(
        "make, call, error, message",
        [case[1:] for case in ERROR_CONTRACT],
        ids=[case[0] for case in ERROR_CONTRACT],
    )
    def test_refusal_names_the_fault_and_changes_nothing(
        self, make, call, error, message
    ):
        cg = make()
        before = _state(cg)
        with pytest.raises(Exception) as caught:
            call(cg)
        assert type(caught.value) is error
        assert str(caught.value) == message
        assert _state(cg) == before

    @pytest.mark.parametrize(
        "call",
        [
            lambda cg: cg.extend_frags(_PART, 2, 3, 5),  # fragment 6 taken
            lambda cg: cg.extend_frags(_PART, 2, 3, 7),  # past the block end
        ],
        ids=["blocked", "past_block_end"],
    )
    def test_refused_extension_changes_nothing(self, call):
        cg = _group()
        before = _state(cg)
        assert call(cg) is False
        assert _state(cg) == before
