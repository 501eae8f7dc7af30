"""Tests for the log-structured file system substrate."""

import pytest

from repro.errors import (
    ConsistencyError,
    FileNotFoundSimError,
    InvalidRequestError,
    OutOfSpaceError,
)
from repro.lfs.check import check_lfs
from repro.lfs.cleaner import choose_victims
from repro.lfs.filesystem import LogStructuredFS, SegmentInfo
from repro.lfs.params import LFSParams
from repro.units import KB, MB


@pytest.fixture
def params():
    return LFSParams(size_bytes=16 * MB, segment_bytes=256 * KB)


@pytest.fixture
def fs(params):
    return LogStructuredFS(params)


class TestParams:
    def test_derived_geometry(self, params):
        assert params.blocks_per_segment == 32
        assert params.nsegments == 64
        assert params.nblocks == 64 * 32

    def test_segment_must_divide_into_blocks(self):
        with pytest.raises(ValueError):
            LFSParams(segment_bytes=100 * KB, block_size=8 * KB)

    def test_water_marks_ordered(self):
        with pytest.raises(ValueError):
            LFSParams(clean_low_water=8, clean_high_water=8)

    def test_unknown_cleaner_policy(self):
        with pytest.raises(ValueError):
            LFSParams(cleaner_policy="oracle")

    def test_reserve_reduces_usable(self, params):
        assert params.usable_blocks < params.nblocks

    def test_segment_of_block(self, params):
        assert params.segment_of_block(0) == 0
        assert params.segment_of_block(params.blocks_per_segment) == 1
        with pytest.raises(ValueError):
            params.segment_of_block(params.nblocks)


class TestLogWrites:
    def test_fresh_file_is_sequential(self, fs):
        ino = fs.create_file(None, 56 * KB)
        blocks = fs.inodes[ino].blocks
        assert blocks == list(range(blocks[0], blocks[0] + 7))

    def test_consecutive_files_chain_in_log(self, fs):
        a = fs.create_file(None, 16 * KB)
        b = fs.create_file(None, 16 * KB)
        assert fs.inodes[b].blocks[0] == fs.inodes[a].blocks[-1] + 1

    def test_sizes_round_to_blocks(self, fs):
        ino = fs.create_file(None, 9 * KB)
        assert len(fs.inodes[ino].blocks) == 2
        assert fs.inodes[ino].size == 9 * KB

    def test_empty_file(self, fs):
        ino = fs.create_file(None, 0)
        assert fs.inodes[ino].blocks == []

    def test_negative_size_rejected(self, fs):
        with pytest.raises(InvalidRequestError):
            fs.create_file(None, -1)

    def test_append_moves_partial_tail(self, fs):
        ino = fs.create_file(None, 12 * KB)
        old_tail = fs.inodes[ino].blocks[-1]
        fs.append(ino, 8 * KB)
        inode = fs.inodes[ino]
        assert inode.size == 20 * KB
        assert len(inode.blocks) == 3
        assert inode.blocks[1] != old_tail  # rewritten at the log head
        check_lfs(fs)

    def test_append_on_block_boundary_keeps_blocks(self, fs):
        ino = fs.create_file(None, 16 * KB)
        first_two = list(fs.inodes[ino].blocks)
        fs.append(ino, 8 * KB)
        assert fs.inodes[ino].blocks[:2] == first_two

    def test_overwrite_relocates_whole_file(self, fs):
        ino = fs.create_file(None, 32 * KB)
        before = list(fs.inodes[ino].blocks)
        fs.overwrite(ino)
        after = fs.inodes[ino].blocks
        assert set(before).isdisjoint(after)
        assert after == list(range(after[0], after[0] + 4))
        check_lfs(fs)

    def test_delete_frees_blocks(self, fs):
        ino = fs.create_file(None, 32 * KB)
        live_before = fs.live_blocks()
        fs.delete_file(ino)
        assert fs.live_blocks() == live_before - 4
        with pytest.raises(FileNotFoundSimError):
            fs.delete_file(ino)

    def test_truncate(self, fs):
        ino = fs.create_file(None, 32 * KB)
        fs.truncate(ino)
        assert fs.inodes[ino].size == 0
        assert fs.inodes[ino].blocks == []
        check_lfs(fs)

    def test_capacity_enforced(self, fs, params):
        with pytest.raises(OutOfSpaceError):
            fs.create_file(None, (params.usable_blocks + 1) * params.block_size)
        # A failed create leaves no ghost inode.
        assert fs.files() == []
        check_lfs(fs)


class TestCleaner:
    def churn(self, fs, target=0.7, n_ops=4000, seed=1):
        import random  # replint: disable=R001  (seeded test-local stream; repro.rng is the library-side rule)

        rng = random.Random(seed)
        live = []
        for _ in range(n_ops):
            if live and (rng.random() < (0.6 if fs.utilization() > target else 0.3)):
                fs.delete_file(live.pop(rng.randrange(len(live))))
            else:
                try:
                    live.append(
                        fs.create_file(None, rng.choice([8 * KB, 24 * KB, 56 * KB]))
                    )
                except OutOfSpaceError:
                    pass
        return live

    def test_cleaning_happens_under_churn(self, fs):
        self.churn(fs)
        assert fs.cleanings > 0
        assert fs.cleaner_blocks_copied > 0
        check_lfs(fs)

    def test_clean_segments_stay_above_floor(self, fs, params):
        self.churn(fs)
        assert fs.clean_segments() >= 1

    def test_write_amplification_above_one(self, fs):
        self.churn(fs)
        assert fs.write_amplification() > 1.0

    def test_cleaning_preserves_file_contents_mapping(self, fs):
        live = self.churn(fs)
        for ino in live:
            inode = fs.inodes[ino]
            expected = -(-inode.size // fs.params.block_size)
            assert len(inode.blocks) == expected
        check_lfs(fs)

    def test_check_catches_drifted_counters(self, fs):
        self.churn(fs, n_ops=800)
        check_lfs(fs)
        for name in ("optimal_pairs", "countable_pairs", "_clean_count"):
            setattr(fs, name, getattr(fs, name) + 1)
            with pytest.raises(ConsistencyError):
                check_lfs(fs)
            setattr(fs, name, getattr(fs, name) - 1)
        check_lfs(fs)

    def test_pair_counts_match_layout_score(self, fs):
        from repro.analysis.layout import score_file_set

        self.churn(fs)
        assert fs.cleaner_blocks_copied > 0
        assert fs.optimal_pairs / fs.countable_pairs == score_file_set(
            fs.files()
        )

    def test_place_counts_both_neighbours(self, fs):
        # The log head makes a new block contiguous with the *next*
        # logical block only across a segment boundary, which churn
        # rarely reaches, so drive the helper on random block lists.
        import random  # replint: disable=R001  (seeded test-local stream; repro.rng is the library-side rule)

        from repro.analysis.layout import optimal_pairs

        rng = random.Random(3)
        for _ in range(500):
            blocks = [rng.randrange(12) for _ in range(rng.randrange(6))]
            fs.optimal_pairs, fs.countable_pairs = optimal_pairs(blocks)
            lbn = rng.randrange(len(blocks) + 1)
            fs._place(blocks, lbn, rng.randrange(12))
            assert (fs.optimal_pairs, fs.countable_pairs) == optimal_pairs(
                blocks
            )

    def test_greedy_policy_also_works(self, params):
        import dataclasses

        greedy = LogStructuredFS(
            dataclasses.replace(params, cleaner_policy="greedy")
        )
        self.churn(greedy)
        assert greedy.cleanings > 0
        check_lfs(greedy)


class TestVictimSelection:
    def make_segments(self, lives, capacity=32):
        segments = []
        for i, live in enumerate(lives):
            seg = SegmentInfo(index=i, live=live, sequence=i + 1, clean=False)
            segments.append(seg)
        return segments

    def test_greedy_picks_emptiest(self):
        segments = self.make_segments([10, 2, 30])
        (victim,) = choose_victims(segments, 32, policy="greedy")
        assert victim.index == 1

    def test_excluded_head_not_chosen(self):
        segments = self.make_segments([1, 5])
        (victim,) = choose_victims(segments, 32, policy="greedy", exclude=0)
        assert victim.index == 1

    def test_clean_segments_not_candidates(self):
        segments = self.make_segments([5, 6])
        segments[0].clean = True
        (victim,) = choose_victims(segments, 32, policy="greedy")
        assert victim.index == 1

    def test_cost_benefit_prefers_old_segments_at_equal_utilization(self):
        segments = self.make_segments([16, 16])
        # index 0 has sequence 1 (older) — higher benefit.
        (victim,) = choose_victims(segments, 32, policy="cost-benefit")
        assert victim.index == 0

    def test_fully_live_segment_never_wins_cost_benefit(self):
        segments = self.make_segments([32, 16])
        (victim,) = choose_victims(segments, 32, policy="cost-benefit")
        assert victim.index == 1

    def test_ties_break_toward_lower_index(self):
        segments = self.make_segments([4, 2, 2, 9])
        (victim,) = choose_victims(segments, 32, policy="greedy")
        assert victim.index == 1

    def test_count_returns_best_first(self):
        segments = self.make_segments([4, 2, 2, 9])
        for policy in ("greedy", "cost-benefit"):
            ranked = choose_victims(segments, 32, policy=policy, count=4)
            (best,) = choose_victims(segments, 32, policy=policy)
            assert ranked[0] is best
        ranked = choose_victims(segments, 32, policy="greedy", count=3)
        assert [seg.index for seg in ranked] == [1, 2, 0]

    def test_empty_candidate_list(self):
        segments = self.make_segments([5])
        segments[0].clean = True
        assert choose_victims(segments, 32) == []

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            choose_victims([], 32, policy="magic")

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            choose_victims([], 0)


class TestLfsAging:
    def test_aging_with_workload(self, aging_artifacts, tiny_params):
        from repro.lfs.replay import age_lfs

        lfs_params = LFSParams(
            size_bytes=tiny_params.actual_size_bytes, segment_bytes=256 * KB
        )
        result = age_lfs(aging_artifacts.reconstructed, params=lfs_params)
        check_lfs(result.fs)
        assert result.creates > 0
        assert result.timeline.final_score() > 0.5

    def test_lfs_layout_beats_plain_ffs(
        self, aging_artifacts, tiny_params, aged_ffs
    ):
        from repro.lfs.replay import age_lfs

        lfs_params = LFSParams(
            size_bytes=tiny_params.actual_size_bytes, segment_bytes=256 * KB
        )
        result = age_lfs(aging_artifacts.reconstructed, params=lfs_params)
        assert (
            result.timeline.final_score()
            >= aged_ffs.timeline.final_score() - 0.05
        )

    def test_comparison_experiment(self):
        from repro.experiments import lfs_compare

        result = lfs_compare.run("tiny")
        scores = result.final_scores()
        assert set(scores) == {"FFS", "FFS + Realloc", "LFS"}
        assert result.write_amplification > 1.0
        assert "write amplification" in result.render()


class TestIdleCleaning:
    def test_idle_clean_restores_clean_pool(self):
        import random  # replint: disable=R001  (seeded test-local stream; repro.rng is the library-side rule)

        params = LFSParams(size_bytes=16 * MB, segment_bytes=256 * KB)
        fs = LogStructuredFS(params)
        rng = random.Random(5)
        live = []
        for _ in range(2500):
            if live and (rng.random() < (0.6 if fs.utilization() > 0.7 else 0.3)):
                fs.delete_file(live.pop(rng.randrange(len(live))))
            else:
                try:
                    live.append(fs.create_file(None, 24 * KB))
                except OutOfSpaceError:
                    pass
        copied = fs.idle_clean()
        assert fs.clean_segments() >= params.clean_high_water or copied >= 0
        assert fs.background_copies == copied
        check_lfs(fs)

    def test_idle_cleaning_shifts_work_out_of_write_path(
        self, aging_artifacts, tiny_params
    ):
        from repro.lfs.replay import age_lfs

        lfs_params = LFSParams(
            size_bytes=tiny_params.actual_size_bytes, segment_bytes=256 * KB,
        )
        on_demand = age_lfs(aging_artifacts.reconstructed, params=lfs_params)
        idle = age_lfs(
            aging_artifacts.reconstructed, params=lfs_params,
            idle_clean_gap_days=0.05,
        )
        check_lfs(idle.fs)
        total_idle = idle.fs.foreground_copies + idle.fs.background_copies
        if total_idle:
            fg_fraction_idle = idle.fs.foreground_copies / total_idle
            assert fg_fraction_idle < 1.0
        # On-demand cleaning is all foreground by construction.
        assert on_demand.fs.background_copies == 0
        assert (
            on_demand.fs.foreground_copies
            == on_demand.fs.cleaner_blocks_copied
        )

    def test_idle_clean_on_fresh_fs_is_noop(self):
        fs = LogStructuredFS(LFSParams(size_bytes=16 * MB, segment_bytes=256 * KB))
        assert fs.idle_clean() == 0
        check_lfs(fs)
