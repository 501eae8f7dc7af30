"""Unit tests for the cluster view of the free map.

A cylinder group answers whole-block questions — which runs of blocks
are wholly free, the next free block (``ffs_mapsearch``), a free run of
N blocks (``ffs_clusteralloc``) — straight from its fragment bitmap.
These cases pin that view: runs split and merge as blocks are taken and
returned, and both searches keep the kernel's order.
"""

import pytest

from repro.ffs.bitmap import FragBitmap

FPB = 8


def make(nblocks):
    return FragBitmap(nblocks, FPB)


def take(m, block):
    return m.alloc_run(block, 0, FPB)


def give_back(m, block):
    return m.free_run(block, 0, FPB)


class TestConstruction:
    def test_starts_fully_free(self):
        m = make(100)
        assert m.free_blocks == 100
        assert m.block_runs() == [(0, 100)]

    def test_can_start_empty(self):
        m = make(100)
        m.alloc_block_range(0, 100)
        assert m.free_blocks == 0
        assert m.block_runs() == []

    def test_rejects_zero_blocks(self):
        with pytest.raises(ValueError):
            make(0)


class TestAllocFree:
    def test_alloc_splits_run(self):
        m = make(10)
        take(m, 4)
        assert m.block_runs() == [(0, 4), (5, 5)]
        assert m.free_blocks == 9

    def test_alloc_at_run_start(self):
        m = make(10)
        take(m, 0)
        assert m.block_runs() == [(1, 9)]

    def test_alloc_at_run_end(self):
        m = make(10)
        take(m, 9)
        assert m.block_runs() == [(0, 9)]

    def test_alloc_allocated_rejected(self):
        m = make(10)
        take(m, 4)
        assert take(m, 4) == 4 * FPB  # refused: names the first taken frag
        assert m.free_blocks == 9

    def test_free_merges_both_neighbours(self):
        m = make(10)
        take(m, 4)
        give_back(m, 4)
        assert m.block_runs() == [(0, 10)]

    def test_free_merges_left_only(self):
        m = make(10)
        take(m, 4)
        take(m, 5)
        give_back(m, 4)
        assert m.block_runs() == [(0, 5), (6, 4)]

    def test_free_merges_right_only(self):
        m = make(10)
        take(m, 4)
        take(m, 5)
        give_back(m, 5)
        assert m.block_runs() == [(0, 4), (5, 5)]

    def test_free_isolated(self):
        m = make(10)
        for b in (3, 4, 5):
            take(m, b)
        give_back(m, 4)
        assert (4, 1) in m.block_runs()

    def test_double_free_rejected(self):
        m = make(10)
        assert give_back(m, 4) == 4 * FPB  # refused: names the first free frag
        assert m.free_blocks == 10

    def test_alloc_range(self):
        m = make(10)
        m.alloc_block_range(2, 5)
        assert m.block_runs() == [(0, 2), (7, 3)]

    def test_one_fragment_takes_the_block_out_of_its_run(self):
        m = make(10)
        m.alloc_run(4, 7, 1)
        assert m.block_runs() == [(0, 4), (5, 5)]
        assert m.free_blocks == 9
        m.free_run(4, 7, 1)
        assert m.block_runs() == [(0, 10)]
        assert m.free_blocks == 10


class TestQueries:
    def test_is_free(self):
        m = make(10)
        take(m, 4)
        assert m.block_is_free(3)
        assert not m.block_is_free(4)

    def test_is_free_out_of_range(self):
        m = make(10)
        assert m.free_blocks_at(8, 5) == 2  # stops at the end of the map
        assert m.free_blocks_at(10, 1) == 0

    def test_max_run(self):
        m = make(10)
        take(m, 6)
        assert m.max_block_run() == 6

    def test_find_free_block_prefers_pref(self):
        m = make(10)
        assert m.find_free_block(4) == 4

    def test_find_free_block_scans_forward(self):
        m = make(10)
        take(m, 4)
        assert m.find_free_block(4) == 5

    def test_find_free_block_skips_partial_blocks(self):
        m = make(10)
        m.alloc_run(4, 2, 1)
        assert m.find_free_block(4) == 5

    def test_find_free_block_wraps(self):
        m = make(10)
        for b in range(5, 10):
            take(m, b)
        assert m.find_free_block(7) == 0

    def test_find_free_block_none_when_full(self):
        m = make(3)
        for b in range(3):
            take(m, b)
        assert m.find_free_block(0) is None


class TestFindFreeRun:
    def test_continuation_at_pref(self):
        m = make(20)
        m.alloc_block_range(0, 5)
        # pref inside the tail run with room: continue exactly there.
        assert m.find_free_blocks(4, pref=8) == 8

    def test_firstfit_lowest_address(self):
        m = make(30)
        # runs: [0,2) [5,12) [20,30)
        m.alloc_block_range(2, 3)
        m.alloc_block_range(12, 8)
        assert m.find_free_blocks(5, pref=2, fit="firstfit") == 5

    def test_bestfit_smallest_adequate(self):
        m = make(30)
        # runs: [0,2) len2, [5,12) len7, [20,30) len10
        m.alloc_block_range(2, 3)
        m.alloc_block_range(12, 8)
        assert m.find_free_blocks(5, pref=0, fit="bestfit") == 5  # len 7 < 10

    def test_exact_fit_wins_bestfit(self):
        m = make(30)
        m.alloc_block_range(2, 3)   # run [0,2)
        m.alloc_block_range(12, 8)  # runs [5,12)=7, [20,30)=10
        assert m.find_free_blocks(7, pref=25, fit="bestfit") == 5

    def test_bestfit_ties_go_to_the_first_run_after_pref(self):
        m = make(30)
        # runs: [0,4) [5,9) [10,14) [15,30), pref inside the last run
        for b in (4, 9, 14):
            take(m, b)
        assert m.find_free_blocks(3, pref=28, fit="bestfit") == 0
        assert m.find_free_blocks(3, pref=9, fit="bestfit") == 10

    def test_none_when_no_run_big_enough(self):
        m = make(10)
        take(m, 5)
        assert m.find_free_blocks(6, pref=0) is None

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            make(10).find_free_blocks(0, pref=0)

    def test_bad_fit_rejected(self):
        with pytest.raises(ValueError):
            make(10).find_free_blocks(2, pref=0, fit="nonsense")

    def test_empty_map(self):
        m = make(4)
        m.alloc_block_range(0, 4)
        assert m.find_free_blocks(1, pref=0) is None
