"""Tests that the fsck-lite checker actually detects corruption.

A checker that never fires is worthless; each test corrupts one
structure in a targeted way and asserts ``check_filesystem`` notices.
"""

import pytest

from repro.errors import ConsistencyError
from repro.ffs.check import check_filesystem
from repro.ffs.filesystem import FileSystem
from repro.ffs.params import scaled_params
from repro.units import KB, MB


@pytest.fixture
def fs():
    params = scaled_params(24 * MB)
    fs = FileSystem(params, policy="ffs")
    d = fs.make_directory("d")
    fs.create_file(d, 40 * KB)
    fs.create_file(d, 100 * KB)
    return fs


class TestCleanState:
    def test_clean_fs_passes(self, fs):
        check_filesystem(fs)

    def test_empty_fs_passes(self):
        check_filesystem(FileSystem(scaled_params(24 * MB)))


class TestDetection:
    def test_leaked_block(self, fs):
        """A block allocated in the bitmap with no owner is caught."""
        cg = fs.sb.cgs[0]
        cg.alloc_block()
        with pytest.raises(ConsistencyError, match="bitmap mismatch"):
            check_filesystem(fs)

    def test_lost_block(self, fs):
        """A block owned by an inode but free in the bitmap is caught."""
        inode = fs.files()[0]
        block = inode.blocks[0]
        fs.sb.cg_of_block(block).free_block_range(block, 1)
        with pytest.raises(ConsistencyError, match="bitmap mismatch"):
            check_filesystem(fs)

    def test_double_referenced_block(self, fs):
        """Two inodes claiming the same block is caught."""
        a, b = fs.files()
        b.blocks[0] = a.blocks[0]
        with pytest.raises(ConsistencyError, match="doubly referenced"):
            check_filesystem(fs)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda inode, nblocks: inode.blocks.__setitem__(0, nblocks),
            lambda inode, nblocks: setattr(inode, "tail", (0, 6, 4)),
        ],
        ids=["block-past-the-disk", "tail-past-its-block"],
    )
    def test_claim_outside_the_disk(self, fs, corrupt):
        """A claim no bitmap holds is caught, not skipped."""
        corrupt(fs.files()[0], fs.params.nblocks)
        with pytest.raises(ConsistencyError, match="outside the disk"):
            check_filesystem(fs)

    def test_size_exceeding_capacity(self, fs):
        inode = fs.files()[0]
        inode.size = inode.size + fs.params.block_size * 10
        with pytest.raises(ConsistencyError, match="exceeds capacity"):
            check_filesystem(fs)

    def test_directory_listing_dead_inode(self, fs):
        d = fs.directories["d"]
        d.children[99999] = None
        with pytest.raises(ConsistencyError, match="dead inode"):
            check_filesystem(fs)

    def test_orphaned_file(self, fs):
        """A live file inode in no directory is caught."""
        inode = fs.files()[0]
        fs.directories["d"].remove(inode.ino)
        with pytest.raises(ConsistencyError, match="directories"):
            check_filesystem(fs)

    def test_corrupted_free_count(self, fs):
        cg = fs.sb.cgs[0]
        cg.bitmap.free_frags += 5
        with pytest.raises(ConsistencyError, match="free_frags"):
            check_filesystem(fs)

    @pytest.mark.parametrize("counter", ["optimal_pairs", "countable_pairs"])
    def test_drifted_pair_count(self, fs, counter):
        setattr(fs, counter, getattr(fs, counter) + 1)
        with pytest.raises(ConsistencyError, match="pair counts"):
            check_filesystem(fs)

    def test_tail_double_claim(self, fs):
        """A tail overlapping another file's block is caught."""
        a, b = fs.files()
        if a.tail is None:
            a, b = b, a
        if a.tail is not None:
            a.tail = (b.blocks[0], a.tail[1], a.tail[2])
            with pytest.raises(ConsistencyError):
                check_filesystem(fs)


class TestPerViewDetection:
    """One corruption per redundant view the checker cross-validates.

    Each test desyncs exactly one derived structure from the fragment
    bits (which stay consistent with the inodes), so the error message
    must name that structure — proving every view is independently
    checked rather than shadowed by the bitmap walk.
    """

    def test_free_in_block_count(self, fs):
        """Per-block free counter desynced from the fragment bits."""
        cg = fs.sb.cgs[0]
        # Block 0 is metadata: fully allocated, counter must read 0.
        cg.bitmap._free_in_block[0] += 1
        with pytest.raises(ConsistencyError, match="free-in-block count wrong"):
            check_filesystem(fs)

    def test_cg_free_blocks_total(self, fs):
        """Group whole-block total desynced from the fragment bits."""
        cg = fs.sb.cgs[0]
        cg.bitmap.free_blocks += 1
        with pytest.raises(ConsistencyError, match="free_blocks .* != recount"):
            check_filesystem(fs)

    def test_inode_table_key_mismatch(self, fs):
        """Inode filed under the wrong table key is caught."""
        inode = fs.files()[0]
        fs.inodes[inode.ino + 1000] = fs.inodes.pop(inode.ino)
        with pytest.raises(ConsistencyError, match="inode table key"):
            check_filesystem(fs)
