"""Superblock: file-system-wide state and cylinder-group selection.

The superblock owns the cylinder groups and implements the *group-level*
halves of the FFS allocation machinery:

* ``hashalloc`` — when the preferred group cannot satisfy a request,
  quadratically rehash across groups, then fall back to a brute-force
  scan (``ffs_hashalloc``),
* ``dirpref`` — place a new directory in the group with an above-average
  free-inode count and the fewest directories, which is what puts the
  aging replayer's 27 seed directories into 27 distinct groups,
* ``next_cg_for_file`` — when an indirect block forces a file to change
  groups (paper footnote 1), pick the next group with above-average free
  space (``ffs_blkpref``'s group rotation).
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Tuple, TypeVar

from repro.errors import OutOfSpaceError
from repro.ffs.cg import CylinderGroup
from repro.ffs.params import FSParams

T = TypeVar("T")


class Superblock:
    """Global allocation state: the set of cylinder groups plus totals."""

    def __init__(self, params: FSParams) -> None:
        self.params = params
        self.cgs: List[CylinderGroup] = [
            CylinderGroup(params, i) for i in range(params.ncg)
        ]
        self._reserve = int(params.data_frags * params.minfree)
        self._blocks_per_cg = params.blocks_per_cg

    def clone(self) -> "Superblock":
        """An independent copy; shares only the immutable ``params``."""
        twin = Superblock.__new__(Superblock)
        twin.params = self.params
        twin.cgs = [cg.clone() for cg in self.cgs]
        twin._reserve = self._reserve
        twin._blocks_per_cg = self._blocks_per_cg
        return twin

    # ------------------------------------------------------------------
    # Totals
    # ------------------------------------------------------------------

    @property
    def free_frags(self) -> int:
        """Free fragments across all groups."""
        return sum(cg.free_frags for cg in self.cgs)

    @property
    def free_blocks(self) -> int:
        """Wholly-free blocks across all groups."""
        return sum(cg.free_blocks for cg in self.cgs)

    @property
    def free_inodes(self) -> int:
        """Free inodes across all groups."""
        return sum(cg.nifree for cg in self.cgs)

    @property
    def ndirs(self) -> int:
        """Live directories across all groups."""
        return sum(cg.ndirs for cg in self.cgs)

    def avg_free_blocks_per_cg(self) -> float:
        """Mean free-block count per group (the ``blkpref`` threshold)."""
        return self.free_blocks / self.params.ncg

    def utilization(self) -> float:
        """Fraction of data fragments in use, counting the ``minfree``
        reserve as free space (the convention of the paper's footnote 2)."""
        total = self.params.nfrags
        used = total - self.free_frags
        metadata = (
            self.params.metadata_blocks_per_cg
            * self.params.ncg
            * self.params.frags_per_block
        )
        data_used = used - metadata
        data_total = total - metadata
        return data_used / data_total if data_total else 0.0

    def cg_of_block(self, block: int) -> CylinderGroup:
        """The group owning global ``block``, for one of its mutators.

        Unchecked: each group mutator range-checks its own request, so
        a block outside the disk goes to the nearer end group, which
        refuses it with a ``ValueError``.
        """
        cgs = self.cgs
        return cgs[min(max(block // self._blocks_per_cg, 0), len(cgs) - 1)]

    def runs_of(
        self, blocks: List[int]
    ) -> Iterator[Tuple[CylinderGroup, int, int]]:
        """``(group, start, length)`` for each physically contiguous
        stretch of the ascending ``blocks`` (never spanning two groups),
        so a file's blocks are freed or marked one range per stretch."""
        i, n = 0, len(blocks)
        while i < n:
            start = blocks[i]
            cg = self.cg_of_block(start)
            cg_limit = cg.base + cg.nblocks
            j = i + 1
            while j < n and blocks[j] == blocks[j - 1] + 1 and blocks[j] < cg_limit:
                j += 1
            yield cg, start, blocks[j - 1] - start + 1
            i = j

    # ------------------------------------------------------------------
    # Group selection
    # ------------------------------------------------------------------

    def hashalloc(
        self,
        start_cg: int,
        attempt: Callable[[CylinderGroup], Optional[T]],
    ) -> T:
        """Run ``attempt`` against groups in ``ffs_hashalloc`` order.

        Order: the preferred group, then quadratic rehash (offsets 1, 2,
        4, 8, ... from the preference), then a brute-force linear scan.
        ``attempt`` returns None to signal "this group cannot satisfy the
        request"; the first non-None result wins.  Raises
        :class:`OutOfSpaceError` if every group fails.
        """
        ncg = self.params.ncg
        first = start_cg % ncg
        # The preferred group succeeds on the overwhelming majority of
        # calls, so it is tried before the rehash order is even built —
        # the order list was measurably expensive at replay scale.
        result = attempt(self.cgs[first])  # replint: disable=R101  (attempt is the caller's pure allocation probe)
        if result is not None:
            return result
        tried = {first}
        order: List[int] = []
        offset = 1
        while offset < ncg:
            order.append((start_cg + offset) % ncg)
            offset *= 2
        order.extend((start_cg + i) % ncg for i in range(ncg))
        for cg_index in order:
            if cg_index in tried:
                continue
            tried.add(cg_index)
            result = attempt(self.cgs[cg_index])  # replint: disable=R101  (attempt is the caller's pure allocation probe)
            if result is not None:
                return result
        raise OutOfSpaceError("no cylinder group could satisfy the request")

    def dirpref(self) -> CylinderGroup:
        """Pick the group for a new directory (classic ``ffs_dirpref``).

        Among groups with at least the average number of free inodes,
        choose the one containing the fewest directories; ties break
        toward the lowest group index.  On an empty file system this
        assigns the first ``ncg`` directories to ``ncg`` distinct groups.
        """
        avg_ifree = self.free_inodes / self.params.ncg
        best: Optional[CylinderGroup] = None
        for cg in self.cgs:
            if cg.nifree < avg_ifree:
                continue
            if best is None or cg.ndirs < best.ndirs:
                best = cg
        if best is None:
            # Degenerate (inode-exhausted) case: take the emptiest group.
            best = max(self.cgs, key=lambda cg: cg.nifree)
            if best.nifree == 0:
                raise OutOfSpaceError("file system is out of inodes")
        return best

    def next_cg_for_file(self, current_cg: int) -> int:
        """Group to move a file to at an indirect-block boundary.

        Scans forward (cyclically) from the group *after* the current one
        and returns the first group whose free-block count is above the
        file-system average; falls back to the group with the most free
        blocks.  This is the group rotation of ``ffs_blkpref`` that makes
        every >96 KB file pay at least one inter-group seek.
        """
        avg = self.avg_free_blocks_per_cg()
        ncg = self.params.ncg
        for step in range(1, ncg + 1):
            candidate = (current_cg + step) % ncg
            if self.cgs[candidate].free_blocks >= avg:
                return candidate
        return max(range(ncg), key=lambda i: self.cgs[i].free_blocks)

    # ------------------------------------------------------------------
    # Reserve enforcement
    # ------------------------------------------------------------------

    def would_break_reserve(self, nfrags: int) -> bool:
        """Whether allocating ``nfrags`` more would dip into ``minfree``.

        FFS refuses ordinary allocations once free space falls below the
        reserve; the aging workload's "90% utilization" peak is measured
        against this same convention.
        """
        # Read each group's bitmap counter directly: this runs once per
        # create and append, and the ``free_frags`` property chain is the
        # larger share of its cost.
        total = 0
        for cg in self.cgs:
            total += cg.bitmap.free_frags
        return total - nfrags < self._reserve
