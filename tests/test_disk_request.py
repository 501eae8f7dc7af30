"""Unit tests for extent construction and transfer splitting."""

import pytest

from repro.disk.request import (
    Extent,
    byte_requests,
    coalesce_extents,
    extents_of_blocks,
)
from repro.units import KB

BS = 8 * KB


class TestExtent:
    def test_end(self):
        assert Extent(10, 3, 3 * BS).end == 13

    def test_rejects_zero_blocks(self):
        with pytest.raises(ValueError):
            Extent(0, 0, 1)

    def test_rejects_zero_bytes(self):
        with pytest.raises(ValueError):
            Extent(0, 1, 0)


class TestExtentsOfBlocks:
    def test_empty(self):
        assert extents_of_blocks([], BS) == []

    def test_single_block(self):
        assert extents_of_blocks([5], BS) == [Extent(5, 1, BS)]

    def test_contiguous_run_merges(self):
        assert extents_of_blocks([5, 6, 7], BS) == [Extent(5, 3, 3 * BS)]

    def test_gap_splits(self):
        assert extents_of_blocks([5, 6, 9], BS) == [
            Extent(5, 2, 2 * BS),
            Extent(9, 1, BS),
        ]

    def test_backwards_jump_splits(self):
        assert extents_of_blocks([9, 5], BS) == [
            Extent(9, 1, BS),
            Extent(5, 1, BS),
        ]

    def test_file_size_trims_tail_of_merged_extent(self):
        extents = extents_of_blocks([5, 6], BS, file_size=BS + 3 * KB)
        assert len(extents) == 1
        assert extents[0].nbytes == BS + 3 * KB

    def test_file_size_trims_final_extent(self):
        extents = extents_of_blocks([5, 9], BS, file_size=BS + 3 * KB)
        assert extents[-1].nbytes == 3 * KB

    def test_file_size_must_be_consistent(self):
        with pytest.raises(ValueError):
            extents_of_blocks([5, 6], BS, file_size=3 * BS)

    def test_logical_order_preserved(self):
        # Physically descending but logically sequential stays 3 extents.
        assert len(extents_of_blocks([9, 8, 7], BS)) == 3


class TestCoalesceExtents:
    def test_adjacent_full_extents_merge(self):
        merged = coalesce_extents(
            [Extent(5, 2, 2 * BS), Extent(7, 1, BS)], BS
        )
        assert merged == [Extent(5, 3, 3 * BS)]

    def test_partial_tail_blocks_merging(self):
        merged = coalesce_extents(
            [Extent(5, 2, 2 * BS - KB), Extent(7, 1, BS)], BS
        )
        assert len(merged) == 2

    def test_non_adjacent_stay_apart(self):
        merged = coalesce_extents(
            [Extent(5, 1, BS), Extent(7, 1, BS)], BS
        )
        assert len(merged) == 2


class TestSplitForTransfer:
    def test_small_extent_unchanged(self):
        reqs = byte_requests([Extent(0, 4, 4 * BS)], BS, 64 * KB)
        assert reqs == [(0, 4 * BS)]

    def test_large_extent_split_at_64kb(self):
        reqs = byte_requests([Extent(0, 16, 16 * BS)], BS, 64 * KB)
        assert reqs == [(0, 8 * BS), (8 * BS, 8 * BS)]

    def test_partial_tail_bytes_preserved(self):
        reqs = byte_requests([Extent(0, 9, 8 * BS + KB)], BS, 64 * KB)
        assert sum(nbytes for _byte, nbytes in reqs) == 8 * BS + KB
        assert reqs[-1] == (8 * BS, KB)

    def test_total_bytes_invariant(self):
        original = [Extent(3, 20, 20 * BS - 5 * KB)]
        reqs = byte_requests(original, BS, 64 * KB)
        assert sum(nbytes for _byte, nbytes in reqs) == original[0].nbytes
        assert reqs[0][0] == 3 * BS

    def test_addresses_are_relative_to_the_partition(self):
        reqs = byte_requests([Extent(2, 1, BS), Extent(7, 1, KB)], BS, 64 * KB,
                             fs_offset=3 * KB)
        assert reqs == [(3 * KB + 2 * BS, BS), (3 * KB + 7 * BS, KB)]

    def test_split_that_runs_out_of_bytes_is_rejected(self):
        # 20 blocks holding 100 bytes: the second 64 KB split carries 0.
        with pytest.raises(ValueError):
            byte_requests([Extent(0, 4, 4 * BS), Extent(100, 20, 100)],
                          BS, 64 * KB)
