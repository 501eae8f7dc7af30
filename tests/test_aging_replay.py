"""Unit and integration tests for the aging replayer."""

import pytest

from repro.aging.replay import AgingReplayer, age_file_system
from repro.aging.workload import CREATE, DELETE, Workload, WorkloadRecord
from repro.ffs.check import check_filesystem
from repro.ffs.filesystem import FileSystem
from repro.units import KB


def rec(time, op, fid, size=0, ino=0, d="x"):
    return WorkloadRecord(
        time=time, op=op, file_id=fid, size=size, src_ino=ino, directory=d
    )


class TestSeedDirectories:
    def test_one_directory_per_group(self, tiny_params):
        fs = FileSystem(tiny_params)
        AgingReplayer(fs)
        assert len(fs.directories) == tiny_params.ncg
        assert {d.cg for d in fs.directories.values()} == set(
            range(tiny_params.ncg)
        )

    def test_target_directory_by_source_inode(self, tiny_params):
        fs = FileSystem(tiny_params)
        replayer = AgingReplayer(fs)
        ipg = tiny_params.inodes_per_cg
        for cg in range(tiny_params.ncg):
            name = replayer.target_directory(cg * ipg + 3)
            assert fs.directories[name].cg == cg

    def test_foreign_inode_space_folds_modulo(self, tiny_params):
        fs = FileSystem(tiny_params)
        replayer = AgingReplayer(fs)
        huge_ino = tiny_params.ninodes * 3 + tiny_params.inodes_per_cg
        name = replayer.target_directory(huge_ino)
        assert fs.directories[name].cg == 1 % tiny_params.ncg


class TestReplaySemantics:
    def test_create_places_file_in_source_group(self, tiny_params):
        ipg = tiny_params.inodes_per_cg
        wl = Workload([rec(0.1, CREATE, 1, 16 * KB, ino=ipg + 2)])
        result = age_file_system(wl, params=tiny_params)
        (inode,) = result.fs.files()
        assert tiny_params.cg_of_block(inode.blocks[0]) == 1

    def test_delete_removes_file(self, tiny_params):
        wl = Workload(
            [rec(0.1, CREATE, 1, 16 * KB), rec(0.2, DELETE, 1)]
        )
        result = age_file_system(wl, params=tiny_params)
        assert result.fs.files() == []
        assert result.creates == 1
        assert result.deletes == 1

    def test_append_grows_file(self, tiny_params):
        wl = Workload(
            [rec(0.1, CREATE, 1, 16 * KB), rec(0.2, "append", 1, 8 * KB)]
        )
        result = age_file_system(wl, params=tiny_params)
        (inode,) = result.fs.files()
        assert inode.size == 24 * KB
        assert result.bytes_written == 24 * KB

    def test_daily_samples_cover_every_day(self, tiny_params):
        wl = Workload(
            [
                rec(0.1, CREATE, 1, 16 * KB),
                rec(2.5, CREATE, 2, 16 * KB),
                rec(4.5, DELETE, 1),
            ]
        )
        result = age_file_system(wl, params=tiny_params)
        assert result.timeline.days() == [0, 1, 2, 3, 4]



class TestEndToEnd:
    def test_aged_fs_is_consistent(self, aged_ffs, aged_realloc):
        check_filesystem(aged_ffs.fs)
        check_filesystem(aged_realloc.fs)

    def test_both_policies_apply_same_operations(self, aged_ffs, aged_realloc):
        assert aged_ffs.creates == aged_realloc.creates
        assert aged_ffs.deletes == aged_realloc.deletes
        assert len(aged_ffs.fs.files()) == len(aged_realloc.fs.files())

    def test_realloc_less_fragmented(self, aged_ffs, aged_realloc):
        assert (
            aged_realloc.timeline.final_score()
            > aged_ffs.timeline.final_score()
        )

    def test_layout_declines_over_time(self, aged_ffs):
        scores = aged_ffs.timeline.scores()
        assert scores[-1] < scores[0]

    def test_utilization_grows_from_empty(self, aged_ffs):
        samples = aged_ffs.timeline.samples
        assert samples[0].utilization < 0.3
        assert samples[-1].utilization > 0.5

    def test_replay_deterministic(self, tiny_params, aging_artifacts, aged_ffs):
        again = age_file_system(
            aging_artifacts.reconstructed, params=tiny_params, policy="ffs"
        )
        assert again.timeline.scores() == aged_ffs.timeline.scores()

    def test_identical_sizes_across_policies(self, aged_ffs, aged_realloc):
        sizes_a = sorted(i.size for i in aged_ffs.fs.files())
        sizes_b = sorted(i.size for i in aged_realloc.fs.files())
        assert sizes_a == sizes_b


class TestIncrementalScoring:
    def test_matches_full_recomputation(self, tiny_params, aging_artifacts):
        from repro.analysis.layout import aggregate_layout_score
        from repro.ffs.filesystem import FileSystem

        fs = FileSystem(tiny_params, policy="realloc")
        replayer = AgingReplayer(fs)
        replayer.replay(aging_artifacts.reconstructed)
        assert replayer.current_layout_score() == pytest.approx(
            aggregate_layout_score(fs), abs=1e-12
        )

    def test_empty_fs_scores_one(self, tiny_params):
        from repro.ffs.filesystem import FileSystem

        replayer = AgingReplayer(FileSystem(tiny_params))
        assert replayer.current_layout_score() == 1.0
