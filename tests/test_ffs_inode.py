"""Unit tests for the Inode layout record."""

import dataclasses
import io

from repro.faults.injector import _InodeSnapshot
from repro.ffs.image import dump_filesystem, inode_to_json, load_filesystem
from repro.ffs.inode import Inode
from repro.ffs.params import FSParams
from repro.units import KB


P = FSParams()


class TestDataBlockList:
    def test_empty_file(self):
        assert Inode(ino=1).data_block_list() == []

    def test_full_blocks_only(self):
        inode = Inode(ino=1, blocks=[10, 11, 12])
        assert inode.data_block_list() == [10, 11, 12]

    def test_tail_contributes_its_block(self):
        inode = Inode(ino=1, blocks=[10], tail=(30, 2, 3))
        assert inode.data_block_list() == [10, 30]

    def test_n_chunks(self):
        assert Inode(ino=1, blocks=[1, 2], tail=(9, 0, 1)).n_chunks() == 3
        assert Inode(ino=1).n_chunks() == 0


class TestFragsUsed:
    def test_counts_blocks_tail_and_indirects(self):
        inode = Inode(
            ino=1, blocks=[10, 11], tail=(30, 0, 3), indirect_blocks=[99]
        )
        fpb = P.frags_per_block
        assert inode.frags_used(P) == 2 * fpb + 3 + fpb

    def test_empty(self):
        assert Inode(ino=1).frags_used(P) == 0


class TestIndirectBoundaries:
    def test_first_boundary_at_ndaddr(self):
        inode = Inode(ino=1, blocks=[0] * 20)
        assert inode.indirect_boundaries(P)[0] == P.ndaddr

    def test_needs_indirect_at_exactly_ndaddr(self):
        inode = Inode(ino=1)
        assert inode.needs_indirect_at(P.ndaddr, P)
        assert not inode.needs_indirect_at(P.ndaddr - 1, P)
        assert not inode.needs_indirect_at(P.ndaddr + 1, P)

    def test_second_boundary_after_nindir(self):
        nindir = P.block_size // 4
        inode = Inode(ino=1)
        assert inode.needs_indirect_at(P.ndaddr + nindir, P)
        assert not inode.needs_indirect_at(P.ndaddr + nindir - 1, P)

    def test_boundaries_list_for_large_file(self):
        nindir = P.block_size // 4
        inode = Inode(ino=1, blocks=[0] * (P.ndaddr + nindir + 5))
        assert inode.indirect_boundaries(P) == [P.ndaddr, P.ndaddr + nindir]


class TestRecord:
    """The inode is one slotted record that carries its own flush
    frontier (``flushed``) through every copy, restore and rollback."""

    def _inode(self):
        return Inode(
            ino=7, is_dir=False, size=100 * KB, ctime=1.5, mtime=2.5,
            dir_cg=3, blocks=[40, 41, 42], tail=(90, 2, 3),
            indirect_blocks=[55], alloc_cg=4, flushed=2,
        )

    def test_slotted(self):
        assert not hasattr(Inode(ino=1), "__dict__")

    def test_clone_copies_every_field_and_shares_no_list(self):
        inode = self._inode()
        twin = inode.clone()
        for f in dataclasses.fields(Inode):
            assert getattr(twin, f.name) == getattr(inode, f.name), f.name
        assert twin.flushed == 2
        assert twin.blocks is not inode.blocks
        assert twin.indirect_blocks is not inode.indirect_blocks

    def test_frontier_is_not_compared_or_stored(self):
        inode = self._inode()
        twin = inode.clone()
        twin.flushed = 0
        assert twin == inode
        assert "flushed" not in inode_to_json(inode)

    def test_image_round_trip_restores_frontier_at_len_blocks(
        self, fresh_fs, tiny_params
    ):
        d = fresh_fs.make_directory("d")
        for size in (3 * KB, 20 * KB, 130 * KB, 12 * tiny_params.block_size + 5):
            fresh_fs.create_file(d, size)
        grown = fresh_fs.create_file(d, 9 * KB)
        fresh_fs.append(grown, 70 * KB)
        fresh_fs.truncate(fresh_fs.create_file(d, 50 * KB))
        image = io.StringIO()
        dump_filesystem(fresh_fs, image)
        image.seek(0)
        restored = load_filesystem(image)
        assert restored.inodes.keys() == fresh_fs.inodes.keys()
        for ino, inode in restored.inodes.items():
            assert inode == fresh_fs.inodes[ino]
            assert inode.flushed == len(inode.blocks)

    def test_snapshot_rebuild_starts_at_zero_and_restore_keeps_frontier(self):
        inode = self._inode()
        snapshot = _InodeSnapshot.of(inode)
        assert snapshot.rebuild().flushed == 0
        inode.blocks.extend([43, 44, 45, 46])
        inode.flushed = 7
        snapshot.restore_onto(inode)
        assert inode.blocks == [40, 41, 42]
        assert inode.flushed == 7
