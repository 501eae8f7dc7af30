"""Unit tests for the per-group fragment bitmap."""

import pytest

from repro.ffs.bitmap import FragBitmap


def frag_runs(bitmap, block):
    """Maximal free fragment runs of ``block`` as (offset, length)."""
    free = [bitmap.is_frag_free(block, off) for off in range(bitmap.fpb)]
    runs, start = [], None
    for off, is_free in enumerate(free + [False]):
        if is_free and start is None:
            start = off
        elif not is_free and start is not None:
            runs.append((start, off - start))
            start = None
    return runs


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
        assert b.alloc_run(0, 0, 4) == -1
        before = b.clone()
        assert b.alloc_run(0, 3, 2) == 3  # the first taken fragment
        assert b.free_frags == before.free_frags
        assert frag_runs(b, 0) == frag_runs(before, 0)

    def test_double_free_rejected(self):
        b = make()
        b.alloc_run(0, 1, 2)
        assert b.free_run(0, 1, 3) == 3  # the first free fragment
        assert frag_runs(b, 0) == [(0, 1), (3, 5)]
        assert b.free_frags == 16 * 8 - 2

    def test_block_full_after_eight_frags(self):
        b = make()
        b.alloc_run(3, 0, 8)
        assert b.free_in_block(3) == 0
        assert b.free_blocks == 15


class TestFragRuns:
    def test_whole_free_block_single_run(self):
        b = make()
        assert frag_runs(b, 5) == [(0, 8)]

    def test_runs_after_middle_allocation(self):
        b = make()
        b.alloc_run(5, 3, 2)
        assert frag_runs(b, 5) == [(0, 3), (5, 3)]

    def test_full_block_no_runs(self):
        b = make()
        b.alloc_run(5, 0, 8)
        assert frag_runs(b, 5) == []

    def test_alloc_run_near(self):
        b = make()
        b.alloc_run(5, 0, 2)
        assert b.alloc_run_near(5, 6) == (5, 2)
        assert b.free_in_block(5) == 0
        assert b.alloc_run_near(5, 7) == (6, 0)
        b.alloc_run(15, 0, 8)
        assert b.alloc_run_near(15, 1) == (0, 0)  # wraps to the front
        assert b.alloc_run_near(7, 7) == (7, 0)

    def test_alloc_run_writes_only_a_free_run(self):
        b = make()
        b.alloc_run(5, 4, 1)
        assert b.alloc_run(5, 3, 3) == 5 * 8 + 4
        assert b.free_in_block(5) == 7
        assert b.alloc_run(5, 0, 4) == -1
        assert b.free_in_block(5) == 3


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

    def test_alloc_block_range_reports_first_taken_fragment(self):
        b = make()
        b.alloc_run(9, 3, 2)
        assert b.alloc_block_range(4, 8) == 9 * 8 + 3
        assert b.free_blocks == 15
        assert b.alloc_block_range(4, 5) == -1
        assert b.free_blocks == 10

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
