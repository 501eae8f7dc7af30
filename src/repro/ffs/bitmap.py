"""Fragment bitmap for one cylinder group: the group's only free map.

FFS allocates whole 8 KB blocks for the body of a file and 1 KB fragments
for the tail of small files, so the on-disk free map is kept at fragment
granularity.  ``FragBitmap`` mirrors that: one byte per fragment, plus a
per-block free-fragment count (a block is a *free block* iff all of its
fragments are free) and a running total of free blocks.

Both allocator searches of the paper run over these arrays with C-level
``bytearray`` primitives, much as 4.4BSD scans its per-group maps:

* fragment runs — :meth:`alloc_run_near`, a ``find`` over the bits;
* the next free block (``ffs_mapsearch``) — :meth:`find_free_block`, a
  ``find`` over the per-block counts;
* a free run of N blocks (``ffs_clusteralloc``) — :meth:`find_free_blocks`.

Free-run summaries (:meth:`block_runs`, :meth:`max_block_run`) are
computed on demand; only the once-per-day sampler and the analysis code
ask for them.

Every write is checked once.  The checked mutators (:meth:`alloc_run`,
:meth:`free_run` and their whole-block forms) make one ``find`` over
the run and, if no fragment of it is in the wrong state, one slice
write per array; else they write nothing and return the index of the
first offending fragment (-1 on success) for the caller to name.  The
search-and-take mutators (:meth:`alloc_free_block`,
:meth:`alloc_free_blocks_at`, :meth:`alloc_run_near`) write what their
search found without looking again.

All addresses here are *local* to the cylinder group; the
:class:`~repro.ffs.cg.CylinderGroup` wrapper translates to and from global
block numbers and range-checks every request once, before it reaches
the bitmap.
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
        #: One wholly free block's count, the unit of range frees.
        self._full = bytes([frags_per_block])
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
        twin._full = self._full
        twin.free_frags = self.free_frags
        twin.free_blocks = self.free_blocks
        return twin

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------

    def is_frag_free(self, block: int, offset: int) -> bool:
        """Whether fragment ``offset`` of ``block`` is free."""
        return self._bits[block * self.fpb + offset] == 0

    def block_is_free(self, block: int) -> bool:
        """Whether every fragment of ``block`` is free."""
        return self._free_in_block[block] == self.fpb

    def free_in_block(self, block: int) -> int:
        """Number of free fragments in ``block``."""
        return self._free_in_block[block]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def alloc_run(self, block: int, offset: int, nfrags: int) -> int:
        """Mark ``nfrags`` free fragments at (block, offset) allocated."""
        base = block * self.fpb + offset
        taken = self._bits.find(1, base, base + nfrags)
        if taken == -1:
            self._take_frags(block, base, nfrags)
        return taken

    def alloc_block_range(self, block: int, nblocks: int) -> int:
        """Mark ``nblocks`` wholly free blocks from ``block`` allocated."""
        base = block * self.fpb
        taken = self._bits.find(1, base, base + nblocks * self.fpb)
        if taken == -1:
            self._take_blocks(block, nblocks)
        return taken

    def free_run(self, block: int, offset: int, nfrags: int) -> int:
        """Mark ``nfrags`` allocated fragments at (block, offset) free."""
        base = block * self.fpb + offset
        end = base + nfrags
        freed = self._bits.find(0, base, end)
        if freed == -1:
            self._bits[base:end] = bytes(nfrags)
            free = self._free_in_block[block] + nfrags
            self._free_in_block[block] = free
            if free == self.fpb:
                self.free_blocks += 1
            self.free_frags += nfrags
        return freed

    def free_block_range(self, block: int, nblocks: int) -> int:
        """Mark ``nblocks`` wholly allocated blocks from ``block`` free."""
        base = block * self.fpb
        end = base + nblocks * self.fpb
        freed = self._bits.find(0, base, end)
        if freed == -1:
            self._bits[base:end] = bytes(end - base)
            self._free_in_block[block : block + nblocks] = self._full * nblocks
            self.free_frags += end - base
            self.free_blocks += nblocks
        return freed

    def alloc_free_block(self, pref: int) -> Optional[int]:
        """Take the block :meth:`find_free_block` finds; None if none."""
        block = self.find_free_block(pref)
        if block is not None:
            fpb = self.fpb
            self._bits[block * fpb : (block + 1) * fpb] = b"\x01" * fpb
            self._free_in_block[block] = 0
            self.free_frags -= fpb
            self.free_blocks -= 1
        return block

    def alloc_free_blocks_at(self, block: int, limit: int) -> int:
        """Take the blocks :meth:`free_blocks_at` counts; returns how many."""
        nblocks = self.free_blocks_at(block, limit)
        if nblocks:
            self._take_blocks(block, nblocks)
        return nblocks

    def alloc_run_near(
        self, start_block: int, nfrags: int
    ) -> Optional[Tuple[int, int]]:
        """Take the nearest free run of ``nfrags`` fragments.

        Scans forward (cyclically) from ``start_block`` for the first
        block — wholly free or partially allocated — that contains an
        adequate free run, and takes that block's first such run;
        returns its (block, offset), or None when no block qualifies.
        This is the allocator's fragment search reduced to
        ``bytearray.find`` with a needle of ``nfrags`` zero bytes: a
        match can only start inside a block if that block has an
        adequate in-block run (shorter runs cannot contain the needle),
        and the leftmost match straddling a block boundary proves the
        block it starts in has no adequate run, so the scan resumes at
        the boundary.  The group has checked that ``nfrags`` is
        1..fpb-1 and ``start_block`` a local block.
        """
        needle = b"\x00" * nfrags
        pos = start_block * self.fpb
        hit = self._scan_for_run(needle, pos, len(self._bits))
        if hit == -1 and pos:
            hit = self._scan_for_run(needle, 0, pos)
        if hit == -1:
            return None
        block = hit // self.fpb
        self._take_frags(block, hit, nfrags)
        return (block, hit - block * self.fpb)

    def _take_frags(self, block: int, base: int, nfrags: int) -> None:
        """Mark fragments [base, base + nfrags) of ``block`` allocated."""
        self._bits[base : base + nfrags] = b"\x01" * nfrags
        free = self._free_in_block[block]
        if free == self.fpb:
            self.free_blocks -= 1
        self._free_in_block[block] = free - nfrags
        self.free_frags -= nfrags

    def _take_blocks(self, block: int, nblocks: int) -> None:
        nfrags = nblocks * self.fpb
        base = block * self.fpb
        self._bits[base : base + nfrags] = b"\x01" * nfrags
        self._free_in_block[block : block + nblocks] = bytes(nblocks)
        self.free_frags -= nfrags
        self.free_blocks -= nblocks

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
        needle = self._full * length
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
    # Internals
    # ------------------------------------------------------------------

    def _scan_for_run(self, needle: bytes, pos: int, end: int) -> int:
        """Bitmap index of the leftmost in-block match of ``needle``
        within [pos, end), -1 if none.

        ``pos`` must be block-aligned so every in-block offset of each
        candidate block is examined.
        """
        fpb = self.fpb
        bits = self._bits
        nfrags = len(needle)
        while pos < end:
            i = bits.find(needle, pos, end)
            if i == -1 or i % fpb + nfrags <= fpb:
                return i
            pos = (i // fpb + 1) * fpb
        return -1
