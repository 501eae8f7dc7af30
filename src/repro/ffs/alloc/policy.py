"""Shared allocation machinery and the policy interface.

The two-step FFS allocation described in Section 2 of the paper lives
here: :meth:`AllocPolicy.alloc_data_block` picks the cylinder group (the
file's current allocation group, with ``ffs_hashalloc`` fallback when it
is full) and then lets the group pick the block (preferred address first,
next free block otherwise).  Policies override the two *cluster* hooks —
:meth:`window_complete` and :meth:`finalize` — which the file system
invokes as logically-sequential runs of newly written blocks become ready
to hit the disk.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro import obs
from repro.errors import OutOfSpaceError
from repro.ffs.cg import CylinderGroup
from repro.ffs.inode import Inode
from repro.ffs.superblock import Superblock
from repro.obs import events as obs_events


class AllocPolicy:
    """Base class: block-at-a-time allocation, no reallocation."""

    #: Registry key; subclasses define ``"ffs"`` / ``"realloc"``.
    name = "base"

    def __init__(self, superblock: Superblock) -> None:
        self.sb = superblock
        self.params = superblock.params
        # Telemetry handles, captured once; None is the disabled fast
        # path (metric names carry the policy so aged-both runs stay
        # distinguishable in one registry).
        self._m = obs.metrics_or_none()
        self._e = obs.events_or_none()
        if self._m is not None:
            prefix = f"alloc.{self.name}"
            self._c_data = self._m.counter(f"{prefix}.data_blocks")
            self._c_fallback = self._m.counter(f"{prefix}.fallbacks")
            self._c_indirect = self._m.counter(f"{prefix}.indirect_blocks")
            self._c_tails = self._m.counter(f"{prefix}.tail_allocs")

    # ------------------------------------------------------------------
    # Block-at-a-time allocation (shared by both policies)
    # ------------------------------------------------------------------

    def alloc_data_block(self, inode: Inode, pref: Optional[int]) -> int:
        """Allocate one data block for ``inode``.

        ``pref`` is the preferred global block address (normally the
        block after the file's previous block, per ``ffs_blkpref``); the
        search starts in the inode's current allocation group and rehashes
        across groups only when that group is completely full.
        """
        # The home group is tried inline (no closure, no rehash order):
        # it succeeds on the overwhelming majority of allocations.
        home_cg = inode.alloc_cg
        cg = self.sb.cgs[home_cg]
        try:
            block = cg.alloc_block(
                pref if pref is not None and cg.owns_block(pref) else None
            )
        except OutOfSpaceError:
            groups_tried = 0

            def attempt(cg: CylinderGroup) -> Optional[int]:
                nonlocal groups_tried
                groups_tried += 1
                try:
                    return cg.alloc_block(
                        pref if pref is not None and cg.owns_block(pref) else None
                    )
                except OutOfSpaceError:
                    return None

            # The home group is full (its retry in ``hashalloc`` fails
            # too), so whatever block this finds is a rehash fallback.
            block = self.sb.hashalloc(home_cg, attempt)
            if self._m is not None:
                self._c_fallback.inc()
            if self._e is not None:
                self._e.emit(
                    obs_events.ALLOC_FALLBACK,
                    policy=self.name,
                    ino=inode.ino,
                    from_cg=home_cg,
                    to_cg=self.params.cg_of_block(block),
                    groups_tried=groups_tried,
                )
        if self._m is not None:
            self._c_data.inc()
        return block

    def alloc_data_run(self, inode: Inode, pref: int, want: int) -> int:
        """Allocate up to ``want`` blocks at exactly ``pref``, ``pref+1``, ...

        The batched form of the ``alloc_data_block`` preference chain:
        when the file's home group owns ``pref`` and has a free run
        starting there, one cluster allocation replaces up to ``want``
        per-block policy calls with identical resulting state — the same
        blocks are taken in the same order, the group rotor ends at the
        same place, and ``data_blocks`` counts the same total.  Returns
        the number of blocks taken; 0 tells the caller to fall back to
        block-at-a-time allocation (which every policy must still
        support).
        """
        cg = self.sb.cgs[inode.alloc_cg]
        if not cg.owns_block(pref):
            return 0
        take = cg.bitmap.free_blocks_at(pref - cg.base, want)
        if take == 0:
            return 0
        cg.alloc_cluster(pref, take)
        if self._m is not None:
            self._c_data.inc(take)
        return take

    def alloc_indirect_block(self, inode: Inode) -> int:
        """Allocate an indirect block, switching the file's group first.

        Per the paper's footnote 1, each indirect block moves allocation
        to a different cylinder group; the indirect block itself is the
        first allocation in the new group and subsequent data blocks
        chain after it.  The ``indirect_switches_cg`` parameter ablates
        the switch for the corresponding design-choice benchmark.
        """
        if self.params.indirect_switches_cg:
            inode.alloc_cg = self.sb.next_cg_for_file(inode.alloc_cg)

        def attempt(cg: CylinderGroup) -> Optional[int]:
            try:
                return cg.alloc_block(None)
            except OutOfSpaceError:
                return None

        block = self.sb.hashalloc(inode.alloc_cg, attempt)
        inode.alloc_cg = self.params.cg_of_block(block)
        if self._m is not None:
            self._c_indirect.inc()
        return block

    def alloc_tail_frags(
        self, inode: Inode, nfrags: int, pref: Optional[Tuple[int, int]]
    ) -> Tuple[int, int]:
        """Allocate a file tail of ``nfrags`` fragments."""
        # Same home-group-first shape as data blocks: tails almost
        # always land in the file's current allocation group.
        cg = self.sb.cgs[inode.alloc_cg]
        try:
            frags = cg.alloc_frags(
                nfrags,
                pref if pref is not None and cg.owns_block(pref[0]) else None,
            )
        except OutOfSpaceError:

            def attempt(cg: CylinderGroup) -> Optional[Tuple[int, int]]:
                try:
                    return cg.alloc_frags(
                        nfrags,
                        pref if pref is not None and cg.owns_block(pref[0]) else None,
                    )
                except OutOfSpaceError:
                    return None

            frags = self.sb.hashalloc(inode.alloc_cg, attempt)
        if self._m is not None:
            self._c_tails.inc()
        return frags

    # ------------------------------------------------------------------
    # Cluster hooks (the policies' point of difference)
    # ------------------------------------------------------------------

    def window_complete(self, inode: Inode, start_lbn: int, end_lbn: int) -> None:
        """A full cluster window of ``inode`` just finished being written.

        Called with logical block range [start_lbn, end_lbn) once that
        range contains ``maxcontig`` blocks or reaches an indirect-block
        boundary.  The base policy leaves the blocks where they are.
        """

    def finalize(self, inode: Inode, start_lbn: int, end_lbn: int) -> None:
        """The file is complete; [start_lbn, end_lbn) is the final partial
        window (possibly empty).  The base policy does nothing."""


def run_is_contiguous(blocks: "list[int]") -> bool:
    """Whether a logical run of block addresses is physically contiguous."""
    return all(blocks[i + 1] == blocks[i] + 1 for i in range(len(blocks) - 1))
