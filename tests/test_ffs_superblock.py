"""Unit tests for the superblock: totals, hashalloc, dirpref, cg rotation."""

import pytest

from repro.errors import OutOfSpaceError
from repro.ffs.filesystem import FileSystem
from repro.ffs.params import FSParams, scaled_params
from repro.ffs.superblock import Superblock
from repro.units import KB, MB


@pytest.fixture
def params():
    return scaled_params(24 * MB)


@pytest.fixture
def sb(params):
    return Superblock(params)


class TestTotals:
    def test_initial_free_blocks(self, sb, params):
        expected = (
            params.blocks_per_cg - params.metadata_blocks_per_cg
        ) * params.ncg
        assert sb.free_blocks == expected

    def test_initial_free_inodes(self, sb, params):
        assert sb.free_inodes == params.ninodes

    def test_utilization_starts_at_zero(self, sb):
        assert sb.utilization() == pytest.approx(0.0)

    def test_utilization_rises_with_allocation(self, sb):
        cg = sb.cgs[0]
        for _ in range(100):
            cg.alloc_block()
        assert sb.utilization() > 0

    def test_avg_free_blocks(self, sb, params):
        assert sb.avg_free_blocks_per_cg() == pytest.approx(
            sb.free_blocks / params.ncg
        )


class TestHashalloc:
    def test_preferred_group_first(self, sb):
        seen = []

        def attempt(cg):
            seen.append(cg.index)
            return cg.index

        assert sb.hashalloc(1, attempt) == 1
        assert seen == [1]

    def test_rehash_on_failure(self, sb, params):
        seen = []

        def attempt(cg):
            seen.append(cg.index)
            return cg.index if cg.index == (1 + 1) % params.ncg else None

        result = sb.hashalloc(1, attempt)
        assert result == (1 + 1) % params.ncg
        assert seen[0] == 1

    def test_brute_force_covers_all_groups(self, sb, params):
        seen = set()

        def attempt(cg):
            seen.add(cg.index)
            return None

        with pytest.raises(OutOfSpaceError):
            sb.hashalloc(0, attempt)
        assert seen == set(range(params.ncg))

    def test_each_group_tried_once(self, sb):
        counts = {}

        def attempt(cg):
            counts[cg.index] = counts.get(cg.index, 0) + 1
            return None

        with pytest.raises(OutOfSpaceError):
            sb.hashalloc(2, attempt)
        assert all(count == 1 for count in counts.values())


class TestDirpref:
    def test_spreads_directories_across_groups(self, sb, params):
        chosen = []
        for _ in range(params.ncg):
            cg = sb.dirpref()
            cg.alloc_inode(is_dir=True)
            chosen.append(cg.index)
        assert sorted(chosen) == list(range(params.ncg))

    def test_prefers_fewest_directories(self, sb):
        sb.cgs[0].alloc_inode(is_dir=True)
        assert sb.dirpref().index != 0


class TestNextCgForFile:
    def test_moves_to_different_group(self, sb):
        assert sb.next_cg_for_file(0) != 0

    def test_skips_below_average_groups(self, sb, params):
        # Drain group 1 almost completely.
        cg = sb.cgs[1]
        for _ in range(cg.free_blocks - 1):
            cg.alloc_block()
        assert sb.next_cg_for_file(0) != 1

    def test_wraps_around(self, sb, params):
        nxt = sb.next_cg_for_file(params.ncg - 1)
        assert 0 <= nxt < params.ncg
        assert nxt != params.ncg - 1


class TestReserve:
    def test_reserve_blocks_allocation_near_full(self, sb, params):
        assert not sb.would_break_reserve(1)
        huge = sb.free_frags
        assert sb.would_break_reserve(huge)

    def test_reserve_threshold(self, sb, params):
        reserve = int(params.data_frags * params.minfree)
        headroom = sb.free_frags - reserve
        assert not sb.would_break_reserve(headroom)
        assert sb.would_break_reserve(headroom + 1)


class TestGroupOfBlock:
    """``cg_of_block`` picks a group without a range check of its own:
    the group's mutator makes the one check of the request."""

    def test_in_range_blocks_map_to_their_group(self, sb, params):
        bpc = params.blocks_per_cg
        for block in (0, bpc - 1, bpc, params.nblocks - 1):
            assert sb.cg_of_block(block) is sb.cgs[params.cg_of_block(block)]

    @pytest.mark.parametrize("where", ["below", "far_below", "above", "far_above"])
    def test_out_of_range_block_is_refused_by_the_group(self, sb, params, where):
        block = {
            "below": -1,
            "far_below": -3 * params.blocks_per_cg,
            "above": params.nblocks,
            "far_above": params.nblocks + 5 * params.blocks_per_cg,
        }[where]
        before = sb.free_frags
        with pytest.raises(ValueError):
            sb.cg_of_block(block).free_block_range(block, 1)
        with pytest.raises(ValueError):
            sb.cg_of_block(block).free_frag_run(block, 0, 1)
        assert sb.free_frags == before

    def test_delete_checks_each_freed_run_once(self, params, monkeypatch):
        fs = FileSystem(params, policy="ffs")
        fs.make_directory("d")
        inos = [fs.create_file("d", size) for size in (3 * KB, 200 * KB)]
        before = fs.sb.free_frags

        def second_check(_self, block):
            raise AssertionError(f"block {block} range-checked twice")

        monkeypatch.setattr(FSParams, "cg_of_block", second_check)
        for ino in inos:
            fs.delete_file(ino)
        assert fs.sb.free_frags > before
