"""Tests for the hot-file benchmark (Section 5.2 / Table 2)."""

import pytest

from repro.bench.hotfiles import HotFileBenchmark
from repro.bench.timing import BenchmarkRunner


@pytest.fixture
def window(aging_artifacts):
    return 0.3 * aging_artifacts.config.days


class TestHotFileSelection:
    def test_hot_files_sorted_by_directory(self, aged_ffs_copy, window):
        bench = HotFileBenchmark(aged_ffs_copy, window_days=window)
        hot = bench.hot_files()
        assert hot, "aging should leave recently modified files"
        dirs = [aged_ffs_copy.directory_of(i.ino).name for i in hot]
        assert dirs == sorted(dirs)

    def test_hot_set_is_subset(self, aged_ffs_copy, window):
        bench = HotFileBenchmark(aged_ffs_copy, window_days=window)
        hot = bench.hot_files()
        assert len(hot) < len(aged_ffs_copy.files())

    def test_smaller_window_fewer_files(self, aged_ffs_copy, window):
        big = HotFileBenchmark(aged_ffs_copy, window_days=window).hot_files()
        small = HotFileBenchmark(
            aged_ffs_copy, window_days=window / 4
        ).hot_files()
        assert len(small) <= len(big)

    def test_empty_fs(self, fresh_fs):
        bench = HotFileBenchmark(fresh_fs)
        assert bench.hot_files() == []


class TestHotFileRun:
    def test_empty_fs_measures_zero_throughput(self, fresh_fs):
        result = HotFileBenchmark(fresh_fs, runner=BenchmarkRunner(2)).run()
        assert result.n_hot_files == 0 and result.hot_bytes == 0
        assert list(result.read_throughput.values) == [0.0, 0.0]
        assert list(result.write_throughput.values) == [0.0, 0.0]

    def test_result_fields(self, aged_ffs_copy, window):
        bench = HotFileBenchmark(
            aged_ffs_copy, window_days=window, runner=BenchmarkRunner(2)
        )
        result = bench.run()
        assert result.n_hot_files > 0
        assert 0 < result.fraction_of_files < 1
        assert 0 < result.fraction_of_space < 1
        assert result.read_throughput.mean > 0
        assert result.write_throughput.mean > 0
        assert result.layout_score is not None

    def test_realloc_beats_ffs_on_hot_files(
        self, aged_ffs_copy, aged_realloc_copy, window
    ):
        """Table 2's direction: realloc wins on layout and throughput."""
        runner = BenchmarkRunner(2)
        ffs = HotFileBenchmark(
            aged_ffs_copy, window_days=window, runner=runner
        ).run()
        realloc = HotFileBenchmark(
            aged_realloc_copy, window_days=window, runner=runner
        ).run()
        assert realloc.layout_score > ffs.layout_score
        assert realloc.read_throughput.mean > ffs.read_throughput.mean

    def test_overwrite_phase_does_not_change_layout(
        self, aged_ffs_copy, window
    ):
        from repro.analysis.layout import aggregate_layout_score

        before = aggregate_layout_score(aged_ffs_copy)
        HotFileBenchmark(
            aged_ffs_copy, window_days=window, runner=BenchmarkRunner(1)
        ).run()
        assert aggregate_layout_score(aged_ffs_copy) == before
