"""Property-based tests for layout-score arithmetic and the disk model."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.layout import optimal_pairs, score_file_set
from repro.disk.geometry import DiskGeometry
from repro.disk.model import DiskModel, IOKind
from repro.disk.request import Extent, byte_requests, extents_of_blocks
from repro.ffs.inode import Inode
from repro.units import KB

BS = 8 * KB

block_lists = st.lists(st.integers(0, 5000), min_size=0, max_size=40, unique=True)


class TestLayoutScoreProperties:
    @given(block_lists)
    def test_score_bounded(self, blocks):
        optimal, countable = optimal_pairs(blocks)
        assert 0 <= optimal <= countable

    @given(st.integers(0, 1000), st.integers(2, 40))
    def test_contiguous_run_scores_perfect(self, start, length):
        blocks = list(range(start, start + length))
        optimal, countable = optimal_pairs(blocks)
        assert optimal == countable == length - 1

    @given(block_lists)
    def test_reversal_never_improves(self, blocks):
        assume(len(blocks) >= 2)
        fwd, _ = optimal_pairs(sorted(blocks))
        rev, _ = optimal_pairs(sorted(blocks, reverse=True))
        assert rev <= fwd

    @given(st.lists(block_lists, min_size=1, max_size=6))
    def test_set_score_is_weighted_mean(self, lists):
        inodes = [
            Inode(ino=i, blocks=blocks, size=len(blocks) * BS)
            for i, blocks in enumerate(lists)
        ]
        total_opt = total_count = 0
        for blocks in lists:
            o, c = optimal_pairs(blocks)
            total_opt += o
            total_count += c
        score = score_file_set(inodes)
        if total_count == 0:
            assert score is None
        else:
            assert abs(score - total_opt / total_count) < 1e-12


class TestExtentProperties:
    @given(block_lists)
    def test_extents_cover_blocks_exactly(self, blocks):
        extents = extents_of_blocks(blocks, BS)
        covered = []
        for ext in extents:
            covered.extend(range(ext.start, ext.end))
        assert covered == blocks or sorted(covered) == sorted(blocks)
        assert sum(e.nblocks for e in extents) == len(blocks)

    @given(block_lists, st.integers(1, 16))
    def test_split_respects_maximum(self, blocks, max_blocks):
        extents = extents_of_blocks(blocks, BS)
        split = byte_requests(extents, BS, max_blocks * BS)
        assert all(nbytes <= max_blocks * BS for _byte, nbytes in split)
        assert sum(nbytes for _byte, nbytes in split) == len(blocks) * BS

    @given(block_lists)
    def test_extent_count_equals_breaks_plus_one(self, blocks):
        assume(blocks)
        extents = extents_of_blocks(blocks, BS)
        optimal, countable = optimal_pairs(blocks)
        assert len(extents) == 1 + (countable - optimal)


class TestDiskModelProperties:
    @given(
        st.lists(st.integers(0, 2000), min_size=1, max_size=15, unique=True),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_time_strictly_positive_and_finite(self, blocks, angle):
        model = DiskModel(initial_angle=angle)
        extents = extents_of_blocks(sorted(blocks), BS)
        elapsed = model.transfer_extents(IOKind.READ, extents, BS)
        assert 0 < elapsed < 60_000

    @given(st.integers(2, 30))
    @settings(max_examples=20, deadline=None)
    def test_fragmenting_a_file_never_speeds_reads(self, nblocks):
        geo = DiskGeometry()
        contiguous = DiskModel(geo)
        contiguous.transfer_extents(
            IOKind.READ, [Extent(100, nblocks, nblocks * BS)], BS
        )
        shredded = DiskModel(geo)
        shredded.transfer_extents(
            IOKind.READ,
            [Extent(100 + 2 * i, 1, BS) for i in range(nblocks)],
            BS,
        )
        assert shredded.now_ms >= contiguous.now_ms

    @given(st.floats(0.0, 0.999), st.floats(0.0, 0.999))
    @settings(max_examples=20, deadline=None)
    def test_angle_only_shifts_phase_not_structure(self, a1, a2):
        def run(angle):
            model = DiskModel(initial_angle=angle)
            model.transfer_extents(
                IOKind.WRITE, [Extent(50, 30, 30 * BS)], BS
            )
            return model.stats.writes

        assert run(a1) == run(a2)
