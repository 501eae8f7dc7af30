"""McKusick's cluster reallocation policy (``ffs_reallocblks``).

The realloc policy lets the original allocator run first, then — before a
cluster of logically sequential dirty blocks reaches the disk — checks
whether the cluster is physically contiguous.  If it is not, the policy
searches the cluster's cylinder group for a free run of the needed length
(``ffs_clusteralloc``), preferring a run that seamlessly continues the
file's previous cluster, and *moves* the blocks there.  If no adequate
free run exists, the blocks stay put: reallocation is best-effort.

Two faithful details with visible consequences in the paper's figures:

* **The two-block quirk** (Section 4): reallocation is not invoked until
  a file *fills* its second block, so files whose data ends inside the
  second block keep whatever scattered layout first-fit gave them — the
  dip at the 16 KB point of Figure 3.
* **Windows never span an indirect boundary**: the kernel's reallocation
  operates within a single block-pointer array, so a cluster cannot pull
  post-indirect blocks back next to the direct blocks.  The mandatory
  inter-group seek at 96 KB therefore survives reallocation, as Figure 3
  and Figure 4 show.
"""

from __future__ import annotations

from typing import List, Optional

from repro.ffs.alloc.policy import AllocPolicy, run_is_contiguous
from repro.ffs.inode import Inode
from repro.ffs.superblock import Superblock
from repro.obs import events as obs_events


class ReallocPolicy(AllocPolicy):
    """Original allocation + best-effort cluster reallocation."""

    name = "realloc"

    def __init__(self, superblock: Superblock) -> None:
        super().__init__(superblock)
        #: Fragmented windows considered for relocation.
        self.relocation_attempts = 0
        #: Windows successfully moved into a free cluster.
        self.relocations = 0
        #: Windows left fragmented because no free run was large enough.
        self.relocation_failures = 0
        if self._m is not None:
            prefix = self.name  # "realloc" / "realloc-eager"
            self._c_attempts = self._m.counter(f"{prefix}.attempts")
            self._c_moved = self._m.counter(f"{prefix}.relocations")
            self._c_failed = self._m.counter(f"{prefix}.failures")
            self._c_blocks = self._m.counter(f"{prefix}.blocks_moved")
            self._h_distance = self._m.histogram(f"{prefix}.distance_blocks")

    def window_complete(
        self,
        inode: Inode,
        start_lbn: int,
        end_lbn: int,
        final_full: int,
        tail_frags: int,
    ) -> None:
        """Reallocate a completed cluster window if it is fragmented.

        The relocation target prefers a free run with room for the data
        that follows this window (up to one more cluster), mirroring
        ``ffs_clusteralloc`` taking the prefix of a longer run: the next
        window's preference then lands on still-free blocks and the file
        keeps extending contiguously.
        """
        trailing = max(0, final_full - end_lbn) + (1 if tail_frags else 0)
        self._maybe_relocate(inode, start_lbn, end_lbn, tail_room=trailing)

    def finalize(
        self, inode: Inode, start_lbn: int, end_lbn: int, tail_frags: int
    ) -> None:
        """Reallocate the trailing partial window at file completion.

        The quirk gate lives here: a trailing window is only processed
        once the file's data has filled its second block
        (``size >= 2 * block_size``).
        """
        if self._quirk_gate(inode):
            return
        # The kernel gathers the file's final partial block (the fragment
        # tail, not yet allocated at this point) into the same cluster of
        # dirty buffers, so the relocation target must leave room for it.
        self._maybe_relocate(
            inode, start_lbn, end_lbn, tail_room=1 if tail_frags else 0
        )

    # ------------------------------------------------------------------

    def _maybe_relocate(
        self, inode: Inode, start_lbn: int, end_lbn: int, tail_room: int = 0
    ) -> None:
        length = end_lbn - start_lbn
        if length < 2 or end_lbn > len(inode.blocks):
            return
        window: List[int] = inode.blocks[start_lbn:end_lbn]
        if run_is_contiguous(window):
            return  # already a single extent; the kernel leaves it alone

        pref = self._window_pref(inode, start_lbn)
        if pref is not None and not 0 <= pref < self.params.nblocks:
            pref = None
        cg_index = (
            self.params.cg_of_block(pref)
            if pref is not None
            else self.params.cg_of_block(window[0])
        )
        cg = self.sb.cgs[cg_index]
        self.relocation_attempts += 1
        if self._m is not None:
            self._c_attempts.inc()
        # Prefer a run with room for the data that follows (subsequent
        # windows or the fragment tail): the follow-on allocations then
        # hit their exact preferences and the file keeps extending
        # contiguously instead of being dragged into crumb-sized holes.
        # The ladder degrades gracefully when only tight runs remain.
        extras = sorted(
            {
                min(tail_room, 8 * self.params.maxcontig),
                min(tail_room, self.params.maxcontig),
                min(tail_room, 1),
                0,
            },
            reverse=True,
        )
        target = None
        for extra in extras:
            target = cg.find_free_cluster(length + extra, pref)
            if target is not None:
                break
        if target is None:
            self.relocation_failures += 1
            if self._m is not None:
                self._c_failed.inc()
            return  # no adequate free run; keep the fragmented layout
        self.relocations += 1
        if self._m is not None:
            self._c_moved.inc()
            self._c_blocks.inc(length)
            # How far the cluster travelled: the gathered blocks moved
            # from the window's first address to the target run.
            self._h_distance.observe(abs(target - window[0]))
        if self._e is not None:
            self._e.emit(
                obs_events.REALLOC_CLUSTER,
                policy=self.name,
                ino=inode.ino,
                start_lbn=start_lbn,
                length=length,
                from_block=window[0],
                to_block=target,
                distance=abs(target - window[0]),
            )
        cg.alloc_cluster(target, length)
        for old_cg, start, run in self.sb.runs_of(sorted(window)):
            old_cg.free_block_range(start, run)
        inode.blocks[start_lbn:end_lbn] = list(range(target, target + length))

    def _quirk_gate(self, inode: Inode) -> bool:
        """Whether the trailing-window reallocation is suppressed.

        True (suppressed) while the file has not yet filled its second
        block — the behaviour responsible for the two-block-file dip of
        Figure 3.
        """
        return inode.size < 2 * self.params.block_size

    def _window_pref(self, inode: Inode, start_lbn: int) -> Optional[int]:
        """Preferred target address for a relocated window.

        Continues the file's previous block when there is one in the same
        pointer array; at the start of an indirect segment, continues the
        indirect block itself (which was just allocated in the new group).
        """
        if start_lbn == 0:
            return None
        if start_lbn == self.params.ndaddr or (
            start_lbn > self.params.ndaddr
            and inode.needs_indirect_at(start_lbn, self.params)
        ):
            if inode.indirect_blocks:
                return inode.indirect_blocks[-1] + 1
            return None
        if (
            start_lbn >= self.params.ndaddr
            and start_lbn % self.params.maxbpg_blocks == 0
        ):
            # The file just moved groups (``fs_maxbpg``): relocate within
            # the window's new group, not behind the previous blocks.
            return None
        return inode.blocks[start_lbn - 1] + 1


class EagerReallocPolicy(ReallocPolicy):
    """Ablation: reallocation triggers from the first block onward.

    Removes the two-block quirk — the disk-allocation-code detail the
    paper calls out in Section 4 — so the ablation benchmark can measure
    how much layout the quirk actually costs two-block files.
    """

    name = "realloc-eager"

    def _quirk_gate(self, inode: Inode) -> bool:
        return False
