"""Unit tests for the per-group fragment bitmap."""

import pytest

from repro.ffs.bitmap import FragBitmap


def make(nblocks=16, fpb=8):
    return FragBitmap(nblocks, fpb)


class TestConstruction:
    def test_starts_all_free(self):
        b = make()
        assert b.free_frags == 16 * 8
        assert all(b.block_is_free(i) for i in range(16))

    def test_rejects_zero_blocks(self):
        with pytest.raises(ValueError):
            FragBitmap(0, 8)

    def test_rejects_bad_fpb(self):
        with pytest.raises(ValueError):
            FragBitmap(4, 9)


class TestAllocFree:
    def test_alloc_run_marks_frags(self):
        b = make()
        b.alloc_run(2, 1, 3)
        assert not b.is_frag_free(2, 1)
        assert not b.is_frag_free(2, 3)
        assert b.is_frag_free(2, 0)
        assert b.free_in_block(2) == 5

    def test_free_run_restores(self):
        b = make()
        b.alloc_run(2, 1, 3)
        b.free_run(2, 1, 3)
        assert b.block_is_free(2)
        assert b.free_frags == 16 * 8

    def test_double_alloc_rejected(self):
        b = make()
        b.alloc_run(0, 0, 4)
        with pytest.raises(ValueError):
            b.alloc_run(0, 3, 2)

    def test_double_free_rejected(self):
        b = make()
        with pytest.raises(ValueError):
            b.free_run(0, 0, 1)

    def test_run_crossing_block_boundary_rejected(self):
        b = make()
        with pytest.raises(ValueError):
            b.alloc_run(0, 6, 4)

    def test_block_full_after_eight_frags(self):
        b = make()
        b.alloc_run(3, 0, 8)
        assert b.block_is_full(3)


class TestFragRuns:
    def test_whole_free_block_single_run(self):
        b = make()
        assert b.frag_runs(5) == [(0, 8)]

    def test_runs_after_middle_allocation(self):
        b = make()
        b.alloc_run(5, 3, 2)
        assert b.frag_runs(5) == [(0, 3), (5, 3)]

    def test_full_block_no_runs(self):
        b = make()
        b.alloc_run(5, 0, 8)
        assert b.frag_runs(5) == []

    def test_find_run_in_block(self):
        b = make()
        b.alloc_run(5, 0, 2)
        assert b.find_run_in_block(5, 6) == 2
        assert b.find_run_in_block(5, 7) is None

    def test_run_is_free(self):
        b = make()
        b.alloc_run(5, 4, 1)
        assert b.run_is_free(5, 0, 4)
        assert not b.run_is_free(5, 3, 3)


class TestWholeBlockQueries:
    def test_free_blocks_counts_only_wholly_free_blocks(self):
        b = make()
        b.alloc_run(2, 0, 5)
        b.alloc_run(3, 0, 8)
        assert b.free_blocks == 14
        b.alloc_block_range(5, 3)
        assert b.free_blocks == 11
        b.free_block_range(5, 3)
        b.free_run(2, 0, 5)
        assert b.free_blocks == 15

    def test_free_blocks_at_stops_at_partial_block(self):
        b = make()
        b.alloc_run(6, 7, 1)
        assert b.free_blocks_at(2, 10) == 4
        assert b.free_blocks_at(2, 3) == 3
        assert b.free_blocks_at(6, 3) == 0

    def test_first_taken_block(self):
        b = make()
        assert b.first_taken_block(0, 16) is None
        b.alloc_run(9, 3, 2)
        assert b.first_taken_block(4, 8) == 9
        assert b.first_taken_block(4, 5) is None

    def test_partial_blocks_are_not_runs(self):
        b = make()
        b.alloc_run(0, 0, 1)
        b.alloc_run(15, 7, 1)
        b.alloc_run(7, 4, 1)
        assert b.block_runs() == [(1, 6), (8, 7)]
        assert b.max_block_run() == 7
        assert b.find_free_blocks(7, pref=3) == 8

    def test_clone_is_independent(self):
        b = make()
        b.alloc_run(4, 0, 8)
        twin = b.clone()
        twin.free_run(4, 0, 8)
        assert b.free_blocks == 15 and twin.free_blocks == 16
        assert b.block_runs() == [(0, 4), (5, 11)]
