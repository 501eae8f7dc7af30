"""Cross-module integration tests: the whole pipeline, end to end.

These exercise chains the unit tests cover piecewise: workload file →
replay → image → restore → benchmark, and the determinism guarantees
that make the paper's controlled comparison valid.
"""

import io
import json

import pytest

from repro.aging.generator import AgingConfig, build_workloads
from repro.aging.replay import AgingReplayer, age_file_system
from repro.aging.workload import Workload
from repro.analysis.layout import aggregate_layout_score
from repro.bench.hotfiles import HotFileBenchmark
from repro.bench.sequential import SequentialIOBenchmark
from repro.bench.timing import BenchmarkRunner
from repro.ffs.check import check_filesystem
from repro.ffs.filesystem import FileSystem
from repro.ffs.image import (
    dump_filesystem,
    filesystem_to_document,
    load_filesystem,
)
from repro.units import KB, MB


class TestFullPipeline:
    def test_workload_file_to_benchmark(self, tiny_params, aging_artifacts, tmp_path):
        """Serialize the workload, reload it, age, snapshot to an image,
        restore, and benchmark — every interface in one chain."""
        path = tmp_path / "workload.txt"
        with open(path, "w") as fp:
            aging_artifacts.reconstructed.dump(fp)
        with open(path) as fp:
            loaded = Workload.load(fp)
        assert list(loaded) == list(aging_artifacts.reconstructed)
        loaded.validate()

        result = age_file_system(loaded, params=tiny_params, policy="realloc")
        check_filesystem(result.fs)

        buf = io.StringIO()
        dump_filesystem(result.fs, buf)
        buf.seek(0)
        restored = load_filesystem(buf)

        bench = SequentialIOBenchmark(
            restored, total_bytes=512 * KB, runner=BenchmarkRunner(2)
        )
        outcome = bench.run(56 * KB)
        assert outcome.read_throughput.mean > 0

    @pytest.mark.parametrize("flavour", ["reconstructed", "ground_truth"])
    def test_workload_file_replays_exactly(
        self, tiny_params, aging_artifacts, flavour
    ):
        """A dumped workload reloads op for op and ages to the same image."""
        original = getattr(aging_artifacts, flavour)
        buf = io.StringIO()
        original.dump(buf)
        buf.seek(0)
        loaded = Workload.load(buf)
        assert list(loaded) == list(original)
        images = [
            json.dumps(
                filesystem_to_document(
                    age_file_system(wl, params=tiny_params, policy="ffs").fs
                ),
                sort_keys=True,
            )
            for wl in (original, loaded)
        ]
        assert images[0] == images[1]

    def test_hot_files_identical_after_image_roundtrip(
        self, aged_ffs_copy, aging_artifacts
    ):
        window = 0.3 * aging_artifacts.config.days
        before = HotFileBenchmark(aged_ffs_copy, window_days=window).hot_files()
        buf = io.StringIO()
        dump_filesystem(aged_ffs_copy, buf)
        buf.seek(0)
        restored = load_filesystem(buf)
        after = HotFileBenchmark(restored, window_days=window).hot_files()
        assert [i.ino for i in before] == [i.ino for i in after]


class TestControlledComparison:
    """The paper's methodology rests on these."""

    def test_same_seed_same_everything(self, tiny_params):
        config = AgingConfig(params=tiny_params, days=8, seed=99)
        a = build_workloads(config)
        b = build_workloads(config)
        assert list(a.ground_truth) == list(b.ground_truth)
        assert list(a.reconstructed) == list(b.reconstructed)
        ra = age_file_system(a.reconstructed, params=tiny_params, policy="ffs")
        rb = age_file_system(b.reconstructed, params=tiny_params, policy="ffs")
        blocks_a = sorted(
            (i.ino, tuple(i.blocks)) for i in ra.fs.files()
        )
        blocks_b = sorted(
            (i.ino, tuple(i.blocks)) for i in rb.fs.files()
        )
        assert blocks_a == blocks_b

    def test_policies_see_identical_logical_operations(
        self, tiny_params, aging_artifacts
    ):
        ffs = age_file_system(
            aging_artifacts.reconstructed, params=tiny_params, policy="ffs"
        )
        realloc = age_file_system(
            aging_artifacts.reconstructed, params=tiny_params, policy="realloc"
        )
        assert ffs.ops_applied == realloc.ops_applied
        assert ffs.bytes_written == realloc.bytes_written
        # Same logical files, byte for byte in sizes and timestamps.
        meta_a = sorted((i.size, i.ctime, i.mtime) for i in ffs.fs.files())
        meta_b = sorted((i.size, i.ctime, i.mtime) for i in realloc.fs.files())
        assert meta_a == meta_b

    def test_different_seeds_differ(self, tiny_params):
        a = build_workloads(AgingConfig(params=tiny_params, days=6, seed=1))
        b = build_workloads(AgingConfig(params=tiny_params, days=6, seed=2))
        assert list(a.reconstructed) != list(b.reconstructed)


class TestScalePresetSanity:
    def test_tiny_and_small_share_structure(self):
        from repro.experiments.config import get_preset

        tiny = get_preset("tiny")
        small = get_preset("small")
        paper = get_preset("paper")
        for preset in (tiny, small, paper):
            assert preset.params.block_size == 8 * KB
            assert preset.params.frag_size == 1 * KB
            assert preset.params.maxcontig == 7
        assert tiny.days < small.days < paper.days
        assert (
            tiny.params.actual_size_bytes
            < small.params.actual_size_bytes
            < paper.params.actual_size_bytes
        )
