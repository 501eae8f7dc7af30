"""Fragment bitmap for one cylinder group: the group's only free map.

FFS allocates whole 8 KB blocks for the body of a file and 1 KB fragments
for the tail of small files, so the on-disk free map is kept at fragment
granularity.  ``FragBitmap`` mirrors that: one byte per fragment, plus a
per-block free-fragment count (a block is a *free block* iff all of its
fragments are free) and a running total of free blocks.

Both allocator searches of the paper run over these arrays with C-level
``bytearray`` primitives, much as 4.4BSD scans its per-group maps:

* fragment runs — :meth:`find_run_any_block`, a ``find`` over the bits;
* the next free block (``ffs_mapsearch``) — :meth:`find_free_block`, a
  ``find`` over the per-block counts;
* a free run of N blocks (``ffs_clusteralloc``) — :meth:`find_free_blocks`.

Free-run summaries (:meth:`block_runs`, :meth:`max_block_run`) are
computed on demand; only the once-per-day sampler and the analysis code
ask for them.

All addresses here are *local* to the cylinder group; the
:class:`~repro.ffs.cg.CylinderGroup` wrapper translates to and from global
block numbers.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional, Tuple


class FragBitmap:
    """Per-fragment allocation state for ``nblocks`` blocks."""

    def __init__(self, nblocks: int, frags_per_block: int) -> None:
        if nblocks <= 0:
            raise ValueError("bitmap needs at least one block")
        if not 1 <= frags_per_block <= 8:
            raise ValueError("FFS supports 1..8 fragments per block")
        self.nblocks = nblocks
        self.fpb = frags_per_block
        # 0 = free, 1 = allocated, one byte per fragment (fast and simple).
        self._bits = bytearray(nblocks * frags_per_block)
        # Free fragments per block; a wholly free block holds ``fpb``, so
        # whole-block searches are ``find`` calls on this array.
        self._free_in_block = bytearray([frags_per_block]) * nblocks
        self.free_frags = nblocks * frags_per_block
        #: Wholly free blocks, kept by the four mutators.
        self.free_blocks = nblocks

    def clone(self) -> "FragBitmap":
        """An independent copy, built by bulk-copying each column.

        Orders of magnitude faster than ``copy.deepcopy`` walking the
        structure element by element; the experiments clone an aged
        file system once per benchmark repetition.
        """
        twin = FragBitmap.__new__(FragBitmap)
        twin.nblocks = self.nblocks
        twin.fpb = self.fpb
        twin._bits = bytearray(self._bits)
        twin._free_in_block = bytearray(self._free_in_block)
        twin.free_frags = self.free_frags
        twin.free_blocks = self.free_blocks
        return twin

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------

    def is_frag_free(self, block: int, offset: int) -> bool:
        """Whether fragment ``offset`` of ``block`` is free."""
        self._check(block, offset, 1)
        return self._bits[block * self.fpb + offset] == 0

    def block_is_free(self, block: int) -> bool:
        """Whether every fragment of ``block`` is free."""
        return self._free_in_block[block] == self.fpb

    def block_is_full(self, block: int) -> bool:
        """Whether every fragment of ``block`` is allocated."""
        return self._free_in_block[block] == 0

    def free_in_block(self, block: int) -> int:
        """Number of free fragments in ``block``."""
        return self._free_in_block[block]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def alloc_run(self, block: int, offset: int, nfrags: int) -> None:
        """Mark ``nfrags`` fragments starting at (block, offset) allocated.

        The scan-and-set is done with ``bytearray`` primitives (``find``
        plus one slice assignment) rather than a per-fragment Python
        loop; this is the allocator's innermost write and the difference
        is measurable across a ten-month aging replay.
        """
        self._check(block, offset, nfrags)
        base = block * self.fpb + offset
        taken = self._bits.find(1, base, base + nfrags)
        if taken != -1:
            raise ValueError(
                f"double allocation: block {block} frag {taken - block * self.fpb}"
            )
        self._bits[base : base + nfrags] = b"\x01" * nfrags
        free = self._free_in_block[block]
        if free == self.fpb:
            self.free_blocks -= 1
        self._free_in_block[block] = free - nfrags
        self.free_frags -= nfrags

    def alloc_block_range(self, block: int, nblocks: int) -> None:
        """Mark ``nblocks`` whole blocks starting at ``block`` allocated.

        The batched form of ``alloc_run(b, 0, fpb)`` for a cluster: one
        slice write per array covers the whole range.  Every fragment in
        the range must be free.
        """
        if nblocks < 1 or block < 0 or block + nblocks > self.nblocks:
            raise ValueError(
                f"block range ({block}, {nblocks}) out of range 0..{self.nblocks - 1}"
            )
        base = block * self.fpb
        end = (block + nblocks) * self.fpb
        taken = self._bits.find(1, base, end)
        if taken != -1:
            raise ValueError(
                f"double allocation: block {taken // self.fpb} "
                f"frag {taken % self.fpb}"
            )
        self._bits[base:end] = b"\x01" * (end - base)
        self._free_in_block[block : block + nblocks] = bytes(nblocks)
        self.free_frags -= end - base
        self.free_blocks -= nblocks

    def free_run(self, block: int, offset: int, nfrags: int) -> None:
        """Mark ``nfrags`` fragments starting at (block, offset) free."""
        self._check(block, offset, nfrags)
        base = block * self.fpb + offset
        freed = self._bits.find(0, base, base + nfrags)
        if freed != -1:
            raise ValueError(
                f"double free: block {block} frag {freed - block * self.fpb}"
            )
        self._bits[base : base + nfrags] = b"\x00" * nfrags
        free = self._free_in_block[block] + nfrags
        self._free_in_block[block] = free
        if free == self.fpb:
            self.free_blocks += 1
        self.free_frags += nfrags

    def free_block_range(self, block: int, nblocks: int) -> None:
        """Mark ``nblocks`` whole blocks starting at ``block`` free.

        The batched form of ``free_run(b, 0, fpb)`` over a contiguous
        run — one slice write per array instead of per-block
        scan-and-set.  Every fragment in the range must currently be
        allocated.
        """
        if nblocks < 1 or block < 0 or block + nblocks > self.nblocks:
            raise ValueError(
                f"block range ({block}, {nblocks}) out of range 0..{self.nblocks - 1}"
            )
        base = block * self.fpb
        end = (block + nblocks) * self.fpb
        freed = self._bits.find(0, base, end)
        if freed != -1:
            raise ValueError(
                f"double free: block {freed // self.fpb} frag {freed % self.fpb}"
            )
        self._bits[base:end] = b"\x00" * (end - base)
        self._free_in_block[block : block + nblocks] = (
            bytes([self.fpb]) * nblocks
        )
        self.free_frags += end - base
        self.free_blocks += nblocks

    def find_free_frag_in_blocks(self, block: int, nblocks: int) -> int:
        """Bitmap index of the first free fragment in the block range, -1
        if every fragment of the range is allocated (one ``find`` call)."""
        return self._bits.find(0, block * self.fpb, (block + nblocks) * self.fpb)

    # ------------------------------------------------------------------
    # Whole-block queries
    # ------------------------------------------------------------------

    def find_free_block(self, pref: int) -> Optional[int]:
        """First wholly free block at or after ``pref``, wrapping around.

        This is the fallback search of the *original* allocator
        (``ffs_mapsearch``): it takes the next free block regardless of
        how large a run it sits in — precisely the behaviour the paper
        blames for long-term fragmentation.
        """
        counts = self._free_in_block
        hit = counts.find(self.fpb, pref)
        if hit == -1 and pref > 0:
            hit = counts.find(self.fpb, 0, pref)
        return None if hit == -1 else hit

    def find_free_blocks(
        self, length: int, pref: int, fit: str = "firstfit"
    ) -> Optional[int]:
        """Start of ``length`` wholly free blocks, preferring continuation.

        Search order mirrors ``ffs_clusteralloc``:

        1. if ``length`` free blocks start at ``pref`` itself, return
           ``pref`` — a cluster that seamlessly continues the caller's
           previous allocation;
        2. otherwise by ``fit``:

           * ``"firstfit"`` (the kernel's behaviour) — the lowest-address
             run of >= ``length`` blocks.  Address-ordered first fit
             concentrates relocated clusters at the front of the group
             and preserves the large free runs behind them.  The leftmost
             match of ``length`` free blocks is always the start of such
             a run (one block earlier would match too otherwise);
           * ``"bestfit"`` — the smallest adequate run, taking the first
             such run that starts after ``pref``, cyclically.  Exact fits
             leave no crumbs; kept as an ablation of the design choice.
        """
        if length < 1:
            raise ValueError("cluster length must be >= 1")
        if fit not in ("firstfit", "bestfit"):
            raise ValueError(f"unknown fit strategy {fit!r}")
        counts = self._free_in_block
        needle = bytes([self.fpb]) * length
        if counts.startswith(needle, pref):
            return pref
        if fit == "firstfit":
            hit = counts.find(needle)
            return None if hit == -1 else hit
        runs = self.block_runs()
        first = bisect_right(runs, (pref, self.nblocks))
        best: Optional[int] = None
        best_len = self.nblocks + 1
        for start, run_len in runs[first:] + runs[:first]:
            if length <= run_len < best_len:
                best, best_len = start, run_len
                if run_len == length:
                    break  # exact fit cannot be beaten
        return best

    def free_blocks_at(self, block: int, limit: int) -> int:
        """Wholly free blocks from ``block`` onward, at most ``limit``."""
        fpb = self.fpb
        end = min(block + limit, self.nblocks)
        taken = self._bits.find(1, block * fpb, end * fpb)
        return end - block if taken == -1 else taken // fpb - block

    def first_taken_block(self, block: int, nblocks: int) -> Optional[int]:
        """First block in [block, block+nblocks) that is not wholly free."""
        fpb = self.fpb
        taken = self._bits.find(1, block * fpb, (block + nblocks) * fpb)
        return None if taken == -1 else taken // fpb

    def block_runs(self) -> List[Tuple[int, int]]:
        """Maximal runs of wholly free blocks as (start, length)."""
        counts = self._free_in_block
        bits = self._bits
        fpb = self.fpb
        runs: List[Tuple[int, int]] = []
        start = counts.find(fpb)
        while start != -1:
            taken = bits.find(1, start * fpb)
            end = self.nblocks if taken == -1 else taken // fpb
            runs.append((start, end - start))
            start = counts.find(fpb, end + 1)
        return runs

    def max_block_run(self) -> int:
        """Length of the longest run of wholly free blocks (0 if none)."""
        return max((length for _start, length in self.block_runs()), default=0)

    # ------------------------------------------------------------------
    # Fragment-run queries
    # ------------------------------------------------------------------

    def frag_runs(self, block: int) -> List[Tuple[int, int]]:
        """Maximal free fragment runs of ``block`` as (offset, length)."""
        runs: List[Tuple[int, int]] = []
        base = block * self.fpb
        start: Optional[int] = None
        for off in range(self.fpb):
            if self._bits[base + off] == 0:
                if start is None:
                    start = off
            elif start is not None:
                runs.append((start, off - start))
                start = None
        if start is not None:
            runs.append((start, self.fpb - start))
        return runs

    def find_run_in_block(self, block: int, nfrags: int) -> Optional[int]:
        """Offset of the first free run of >= ``nfrags`` in ``block``."""
        for offset, length in self.frag_runs(block):
            if length >= nfrags:
                return offset
        return None

    def run_is_free(self, block: int, offset: int, nfrags: int) -> bool:
        """Whether the exact run (block, offset, nfrags) is entirely free."""
        self._check(block, offset, nfrags)
        base = block * self.fpb + offset
        return self._bits.find(1, base, base + nfrags) == -1

    def find_run_any_block(
        self, start_block: int, nfrags: int
    ) -> Optional[Tuple[int, int]]:
        """Nearest (block, offset) holding a free run of >= ``nfrags``.

        Scans forward (cyclically) from ``start_block`` and returns the
        first block — wholly free or partially allocated — that contains
        an adequate free run, with the offset of that block's first such
        run; None when no block qualifies.  This is the allocator's
        fragment search reduced to ``bytearray.find`` with a needle of
        ``nfrags`` zero bytes: a match can only start inside a block if
        that block has an adequate in-block run (shorter runs cannot
        contain the needle), and the leftmost match straddling a block
        boundary proves the block it starts in has no adequate run, so
        the scan resumes at the boundary.
        """
        if not 1 <= nfrags < self.fpb:
            raise ValueError(f"fragment allocations are 1..{self.fpb - 1} frags")
        if not 0 <= start_block < self.nblocks:
            raise ValueError(f"block {start_block} out of range 0..{self.nblocks - 1}")
        needle = b"\x00" * nfrags
        hit = self._scan_for_run(needle, start_block * self.fpb, len(self._bits))
        if hit is None and start_block > 0:
            hit = self._scan_for_run(needle, 0, start_block * self.fpb)
        return hit

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _scan_for_run(
        self, needle: bytes, pos: int, end: int
    ) -> Optional[Tuple[int, int]]:
        """Leftmost in-block match of ``needle`` within [pos, end).

        ``pos`` must be block-aligned so every in-block offset of each
        candidate block is examined.
        """
        fpb = self.fpb
        bits = self._bits
        nfrags = len(needle)
        while pos < end:
            i = bits.find(needle, pos, end)
            if i == -1:
                return None
            offset = i % fpb
            if offset + nfrags <= fpb:
                return (i // fpb, offset)
            pos = (i // fpb + 1) * fpb
        return None

    def _check(self, block: int, offset: int, nfrags: int) -> None:
        if not 0 <= block < self.nblocks:
            raise ValueError(f"block {block} out of range 0..{self.nblocks - 1}")
        if not 0 <= offset < self.fpb:
            raise ValueError(f"fragment offset {offset} out of range")
        if nfrags < 1 or offset + nfrags > self.fpb:
            raise ValueError(
                f"fragment run ({offset}, {nfrags}) crosses a block boundary"
            )
