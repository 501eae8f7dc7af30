"""A counterfactual allocator: the original FFS with a run-aware fallback.

Section 2 of the paper pins long-term fragmentation on one decision:
when the preferred block is taken, the original allocator settles for
the next free block "without considering the amount of free space where
the new block is located — thus if there is just one free block in a
good location and a cluster of ten free blocks in a slightly worse
location, FFS will allocate the single free block."

``SmartFallbackPolicy`` is that sentence inverted: identical to the
original policy except that the fallback looks for a free *run* big
enough for the rest of the file (capped at ``maxcontig``) and starts
allocating there.  It never moves blocks after the fact, so comparing it
against both the original policy and realloc separates how much of
realloc's benefit comes from smarter initial placement versus from
after-the-fact reallocation.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import OutOfSpaceError
from repro.ffs.alloc.policy import AllocPolicy
from repro.ffs.cg import CylinderGroup
from repro.ffs.inode import Inode


class SmartFallbackPolicy(AllocPolicy):
    """One-block-at-a-time allocation with a free-run-aware fallback."""

    name = "ffs-smart"

    def alloc_data_block(self, inode: Inode, pref: Optional[int]) -> int:
        """Allocate one data block, falling back to a free *run*."""
        remaining = self._remaining_blocks(inode)

        def attempt(cg: CylinderGroup) -> Optional[int]:
            local_pref = pref if pref is not None and cg.owns_block(pref) else None
            # The preferred block itself always wins when free: taking it
            # continues the current extent.
            if local_pref is not None and cg.bitmap.block_is_free(
                local_pref - cg.base
            ):
                cg.alloc_block_at(local_pref)
                cg.rotor = (local_pref - cg.base + 1) % cg.nblocks
                return local_pref
            # Fallback: start a new extent at the front of a free run
            # with room for the rest of the file (capped at one cluster).
            want = max(1, min(remaining, self.params.maxcontig))
            while want >= 1:
                start = cg.find_free_cluster(want, local_pref)
                if start is not None:
                    cg.alloc_block_at(start)
                    cg.rotor = (start - cg.base + 1) % cg.nblocks
                    return start
                want //= 2
            try:
                return cg.alloc_block(local_pref)
            except OutOfSpaceError:
                return None

        block = self.sb.hashalloc(inode.alloc_cg, attempt)
        if self._m is not None:
            self._c_data.inc()
        return block

    def _remaining_blocks(self, inode: Inode) -> int:
        """Full blocks of the file still unallocated (the size is on the
        inode before allocation begins, so this is exact)."""
        final_full, _tail = self.params.layout_for_size(inode.size)
        return max(1, final_full - len(inode.blocks))
