"""Cylinder groups: the allocation pools of FFS.

A cylinder group owns a contiguous slice of the disk's blocks, its own
inode table, and one free map.  All allocation decisions in FFS are made
*within* a group once the group has been chosen; this class translates
global block numbers to the group's local ones and answers every block,
cluster and fragment request from that free map, the fragment bitmap
(:class:`~repro.ffs.bitmap.FragBitmap`).

The leading blocks of each group are reserved for the superblock copy,
group descriptor, and inode table, as in a real ``newfs``; those addresses
double as the targets of synchronous metadata writes in the performance
model.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.errors import ConsistencyError, OutOfSpaceError
from repro.ffs.bitmap import FragBitmap
from repro.ffs.params import FSParams

FragRef = Tuple[int, int]  # (global block number, fragment offset)


class CylinderGroup:
    """One cylinder group: free map, inode table, allocation rotor."""

    def __init__(self, params: FSParams, index: int) -> None:
        if not 0 <= index < params.ncg:
            raise ValueError(f"cylinder group index {index} out of range")
        self.params = params
        self.index = index
        self.base = params.cg_base_block(index)
        self.nblocks = params.blocks_per_cg
        self.bitmap = FragBitmap(self.nblocks, params.frags_per_block)
        self._inode_used = bytearray(params.inodes_per_cg)
        self.nifree = params.inodes_per_cg
        self.ndirs = 0
        #: Next-allocation hint, like the kernel's cg rotor.
        self.rotor = params.metadata_blocks_per_cg
        self.bitmap.alloc_block_range(0, params.metadata_blocks_per_cg)

    # ------------------------------------------------------------------
    # Address translation
    # ------------------------------------------------------------------

    def _local(self, block: int) -> int:
        local = block - self.base
        if not 0 <= local < self.nblocks:
            raise ValueError(
                f"block {block} does not belong to cylinder group {self.index}"
            )
        return local

    def owns_block(self, block: int) -> bool:
        """Whether global ``block`` falls inside this group."""
        return self.base <= block < self.base + self.nblocks

    def clone(self) -> "CylinderGroup":
        """An independent copy; shares only the immutable ``params``."""
        twin = CylinderGroup.__new__(CylinderGroup)
        twin.params = self.params
        twin.index = self.index
        twin.base = self.base
        twin.nblocks = self.nblocks
        twin.bitmap = self.bitmap.clone()
        twin._inode_used = bytearray(self._inode_used)
        twin.nifree = self.nifree
        twin.ndirs = self.ndirs
        twin.rotor = self.rotor
        return twin

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------

    @property
    def free_frags(self) -> int:
        """Free fragments in the group (bitmap granularity)."""
        return self.bitmap.free_frags

    @property
    def free_blocks(self) -> int:
        """Wholly-free blocks in the group."""
        return self.bitmap.free_blocks

    def max_free_run(self) -> int:
        """Longest run of wholly-free blocks."""
        return self.bitmap.max_block_run()

    # ------------------------------------------------------------------
    # Whole-block allocation
    # ------------------------------------------------------------------

    def alloc_block(self, pref: Optional[int] = None) -> int:
        """Allocate one block, preferring global address ``pref``.

        If ``pref`` is taken, falls back to the next free block scanning
        forward (cyclically) from it — the ``ffs_mapsearch`` order, which
        deliberately ignores how large a free run the fallback block sits
        in.  Raises :class:`OutOfSpaceError` when the group has no free
        block.
        """
        if pref is not None and self.owns_block(pref):
            start = self._local(pref)
        else:
            start = self.rotor % self.nblocks
        local = self.bitmap.find_free_block(start)
        if local is None:
            raise OutOfSpaceError(
                f"cylinder group {self.index} has no free block", cg=self.index
            )
        self.bitmap.alloc_run(local, 0, self.params.frags_per_block)
        self.rotor = (local + 1) % self.nblocks
        return self.base + local

    def alloc_block_at(self, block: int) -> None:
        """Allocate the specific global ``block`` (must be wholly free)."""
        local = self._local(block)
        if not self.bitmap.block_is_free(local):
            raise OutOfSpaceError(f"block {block} is not free", cg=self.index)
        self.bitmap.alloc_run(local, 0, self.params.frags_per_block)

    def free_block(self, block: int) -> None:
        """Free a wholly-allocated block."""
        local = self._local(block)
        if self.bitmap.free_in_block(local) != 0:
            raise ConsistencyError(
                f"freeing block {block} that is not fully allocated"
            )
        self.bitmap.free_run(local, 0, self.params.frags_per_block)

    def free_block_range(self, start: int, nblocks: int) -> None:
        """Free ``nblocks`` wholly-allocated consecutive blocks at ``start``.

        The batched form of :meth:`free_block` for a file's contiguous
        runs: one slice write per bitmap array instead of ``nblocks``
        independent frees.
        """
        local = self._local(start)
        if nblocks < 1 or local + nblocks > self.nblocks:
            raise ValueError(
                f"block range ({start}, {nblocks}) crosses the group boundary"
            )
        free_at = self.bitmap.find_free_frag_in_blocks(local, nblocks)
        if free_at != -1:
            raise ConsistencyError(
                f"freeing block {self.base + free_at // self.params.frags_per_block} "
                f"that is not fully allocated"
            )
        self.bitmap.free_block_range(local, nblocks)

    # ------------------------------------------------------------------
    # Cluster allocation (used by the realloc policy)
    # ------------------------------------------------------------------

    def find_free_cluster(self, length: int, pref: Optional[int] = None) -> Optional[int]:
        """Global start of a free run of >= ``length`` blocks, or None.

        The search begins at ``pref`` (global) and wraps within the group,
        so a cluster that would seamlessly continue the caller's previous
        cluster is found first when one exists.
        """
        if pref is not None and self.owns_block(pref):
            start = self._local(pref)
        else:
            # No usable preference: search from the rotor, where recent
            # allocation activity is, rather than the group's start.
            start = self.rotor % self.nblocks
        local = self.bitmap.find_free_blocks(
            length, start, fit=self.params.cluster_fit
        )
        if local is None:
            return None
        return self.base + local

    def alloc_cluster(self, start: int, length: int) -> None:
        """Allocate ``length`` consecutive blocks starting at global ``start``.

        One range check plus one slice write per bitmap array, rather
        than ``length`` independent block allocations — this is the
        realloc policy's hottest write path.  On failure the error names
        the first block that is not wholly free and nothing changes.
        """
        local = self._local(start)
        if local + length > self.nblocks:
            raise OutOfSpaceError(
                f"cluster ({start}, {length}) crosses the group boundary",
                cg=self.index,
            )
        bad = self.bitmap.first_taken_block(local, length)
        if bad is not None:
            raise OutOfSpaceError(
                f"cluster block {self.base + bad} is not free", cg=self.index
            )
        self.bitmap.alloc_block_range(local, length)
        self.rotor = (local + length) % self.nblocks

    # ------------------------------------------------------------------
    # Fragment allocation
    # ------------------------------------------------------------------

    def alloc_frags(
        self, nfrags: int, pref: Optional[FragRef] = None
    ) -> FragRef:
        """Allocate ``nfrags`` contiguous fragments within one block.

        Search order mirrors ``ffs_alloccg`` + ``ffs_mapsearch``:

        1. the exact preferred position, when given and free (this is
           what lets a fresh file's tail land immediately after its last
           full block, and lets an existing tail extend in place),
        2. otherwise, the *nearest* adequate free run scanning forward
           (cyclically) from the preference — whether that run lives in a
           partially-allocated block or at the start of a wholly-free
           block, exactly as a raw bitmap scan would find it.

        Raises :class:`OutOfSpaceError` if the group has no adequate run.
        """
        fpb = self.params.frags_per_block
        if not 1 <= nfrags < fpb:
            raise ValueError(f"fragment allocations are 1..{fpb - 1} frags")
        if pref is not None and self.owns_block(pref[0]):
            local, offset = self._local(pref[0]), pref[1]
            if offset + nfrags <= fpb and self.bitmap.run_is_free(
                local, offset, nfrags
            ):
                self.bitmap.alloc_run(local, offset, nfrags)
                return (pref[0], offset)
            start = local
        else:
            start = self.rotor % self.nblocks

        hit = self.bitmap.find_run_any_block(start, nfrags)
        if hit is None:
            raise OutOfSpaceError(
                f"cylinder group {self.index} has no free run of "
                f"{nfrags} fragments",
                cg=self.index,
            )
        best_block, offset = hit
        self.bitmap.alloc_run(best_block, offset, nfrags)
        return (self.base + best_block, offset)

    def extend_frags(
        self, block: int, offset: int, old_nfrags: int, new_nfrags: int
    ) -> bool:
        """Grow a fragment run in place if the next fragments are free.

        Returns True on success; on failure the run is untouched and the
        caller must allocate elsewhere and "copy".
        """
        if new_nfrags <= old_nfrags:
            raise ValueError("extend_frags only grows runs")
        fpb = self.params.frags_per_block
        if offset + new_nfrags > fpb:
            return False
        local = self._local(block)
        extra = new_nfrags - old_nfrags
        if not self.bitmap.run_is_free(local, offset + old_nfrags, extra):
            return False
        self.bitmap.alloc_run(local, offset + old_nfrags, extra)
        return True

    def alloc_frags_at(self, block: int, offset: int, nfrags: int) -> None:
        """Allocate the exact fragment run (block, offset, nfrags).

        Used when restoring a file-system image; raises if any of the
        fragments is already taken.
        """
        local = self._local(block)
        if not self.bitmap.run_is_free(local, offset, nfrags):
            raise OutOfSpaceError(
                f"fragment run ({block}, {offset}, {nfrags}) is not free",
                cg=self.index,
            )
        self.bitmap.alloc_run(local, offset, nfrags)

    def free_frag_run(self, block: int, offset: int, nfrags: int) -> None:
        """Free ``nfrags`` fragments at (block, offset)."""
        self.bitmap.free_run(self._local(block), offset, nfrags)

    # ------------------------------------------------------------------
    # Inode allocation
    # ------------------------------------------------------------------

    def alloc_inode(self, is_dir: bool = False) -> int:
        """Allocate the lowest-numbered free inode in this group."""
        if self.nifree == 0:
            raise OutOfSpaceError(
                f"cylinder group {self.index} has no free inode", cg=self.index
            )
        idx = self._inode_used.find(0)
        if idx < 0:
            raise ConsistencyError(
                f"nifree={self.nifree} but inode map of group {self.index} is full"
            )
        self._inode_used[idx] = 1
        self.nifree -= 1
        if is_dir:
            self.ndirs += 1
        return self.index * self.params.inodes_per_cg + idx

    def alloc_inode_at(self, ino: int, is_dir: bool = False) -> None:
        """Allocate the specific inode number ``ino`` (image restore)."""
        idx = ino - self.index * self.params.inodes_per_cg
        if not 0 <= idx < self.params.inodes_per_cg:
            raise ValueError(f"inode {ino} not in cylinder group {self.index}")
        if self._inode_used[idx]:
            raise OutOfSpaceError(f"inode {ino} is already in use", cg=self.index)
        self._inode_used[idx] = 1
        self.nifree -= 1
        if is_dir:
            self.ndirs += 1

    def free_inode(self, ino: int, is_dir: bool = False) -> None:
        """Free inode number ``ino`` (must belong to this group)."""
        idx = ino - self.index * self.params.inodes_per_cg
        if not 0 <= idx < self.params.inodes_per_cg:
            raise ValueError(f"inode {ino} not in cylinder group {self.index}")
        if not self._inode_used[idx]:
            raise ConsistencyError(f"double free of inode {ino}")
        self._inode_used[idx] = 0
        self.nifree += 1
        if is_dir:
            if self.ndirs <= 0:
                raise ConsistencyError(
                    f"directory count of group {self.index} went negative"
                )
            self.ndirs -= 1
