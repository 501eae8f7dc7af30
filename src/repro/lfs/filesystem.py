"""The log-structured file system: append-only log + segment cleaning.

All writes — new data, overwrites, and the cleaner's copies — append to
the current segment of the log.  A block dies when its file is deleted,
truncated, or rewrites that logical block; the segment usage table
tracks live counts, and the cleaner reclaims space by copying a victim
segment's live blocks to the log head and marking the victim clean.

The layout consequence (the reason this exists in an FFS-aging
reproduction): freshly written files are perfectly sequential in the
log, but *cleaning mixes the surviving blocks of many files together*,
so an aged LFS's read layout degrades in a qualitatively different way
from FFS's — the trade [Seltzer95] measured and the realloc algorithm
was BSD's answer to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import (
    FileNotFoundSimError,
    InvalidRequestError,
    OutOfSpaceError,
)
from repro.lfs.cleaner import choose_victims
from repro.lfs.params import LFSParams


@dataclass
class LfsInode:
    """A file in the LFS: logical-block -> log-address map."""

    ino: int
    size: int = 0
    ctime: float = 0.0
    mtime: float = 0.0
    #: Log addresses of logical blocks 0..n-1.
    blocks: List[int] = field(default_factory=list)

    def data_block_list(self) -> List[int]:
        """Physical addresses in logical order (layout-score input)."""
        return list(self.blocks)

    def n_chunks(self) -> int:
        """Number of blocks (LFS has no sub-block fragments here)."""
        return len(self.blocks)


@dataclass
class SegmentInfo:
    """Usage-table entry for one segment."""

    index: int
    live: int = 0
    #: Monotonic stamp of the last write into the segment; the
    #: cost-benefit policy uses it as the segment's "age".
    sequence: int = 0
    clean: bool = True


class LogStructuredFS:
    """A simulated LFS exposing the same lifecycle API as FileSystem.

    Directories carry no placement meaning in an LFS (everything goes to
    the log head), so directory arguments are accepted and recorded but
    do not influence allocation — which is itself the experimental
    point.
    """

    def __init__(self, params: Optional[LFSParams] = None):
        self.params = params if params is not None else LFSParams()
        self.segments = [SegmentInfo(index=i) for i in range(self.params.nsegments)]
        self.inodes: Dict[int, LfsInode] = {}
        #: Live-block reverse map: log address -> (ino, logical block).
        self.owner: Dict[int, Tuple[int, int]] = {}
        self._next_ino = 0
        self._sequence = 0
        self._head_segment = 0
        self._head_offset = 0
        self._cleaning = False
        self.segments[0].clean = False
        self.segments[0].sequence = self._bump()
        self._clean_count = self.params.nsegments - 1
        #: Aggregate layout-score numerator and denominator over every
        #: live file (see :func:`repro.analysis.layout.optimal_pairs`),
        #: kept current by ``_place`` and ``_unlink`` on every change
        #: to an inode's block list.
        self.optimal_pairs = 0
        self.countable_pairs = 0
        # Statistics the LFS literature cares about.
        self.user_blocks_written = 0
        self.cleaner_blocks_copied = 0
        self.cleanings = 0
        #: Cleaner copies performed inside the write path (a user write
        #: had to wait) vs. during announced idle time.
        self.foreground_copies = 0
        self.background_copies = 0
        self._idle_cleaning = False

    # ------------------------------------------------------------------
    # Lifecycle API (mirrors FileSystem where it matters)
    # ------------------------------------------------------------------

    def create_file(
        self, directory: object = None, size: int = 0, when: float = 0.0
    ) -> int:
        """Create a file of ``size`` bytes; returns its inode number."""
        if size < 0:
            raise InvalidRequestError(f"negative file size {size}")
        ino = self._next_ino
        self._next_ino += 1
        inode = LfsInode(ino=ino, ctime=when, mtime=when)
        self.inodes[ino] = inode
        if size:
            try:
                self.append(ino, size, when=when)
            except OutOfSpaceError:
                del self.inodes[ino]
                raise
        return ino

    def append(self, ino: int, nbytes: int, when: float = 0.0) -> None:
        """Grow file ``ino`` by ``nbytes`` (appends blocks to the log)."""
        inode = self._live(ino)
        if nbytes <= 0:
            raise InvalidRequestError(f"append of {nbytes} bytes")
        new_size = inode.size + nbytes
        bs = self.params.block_size
        needed = -(-new_size // bs) - len(inode.blocks)
        self._check_space(needed)
        # Rewriting the (partial) last block moves it to the log head,
        # as any LFS overwrite does.
        blocks = inode.blocks
        if blocks and inode.size % bs != 0:
            last_lbn = len(blocks) - 1
            self._kill(blocks[last_lbn])
            self._place(blocks, last_lbn, self._log_write(ino, last_lbn))
            self.user_blocks_written += 1
        for _ in range(needed):
            lbn = len(blocks)
            self._place(blocks, lbn, self._log_write(ino, lbn))
            self.user_blocks_written += 1
        inode.size = new_size
        inode.mtime = max(inode.mtime, when)

    def overwrite(self, ino: int, when: float = 0.0) -> None:
        """Rewrite a file's contents: every block moves to the log head.

        This is where LFS differs most from FFS — an overwrite relocates
        the file (perfectly sequentially) instead of writing in place.
        """
        inode = self._live(ino)
        blocks = inode.blocks
        for lbn, address in enumerate(blocks):
            self._kill(address)
            self._place(blocks, lbn, self._log_write(ino, lbn))
            self.user_blocks_written += 1
        inode.mtime = max(inode.mtime, when)

    def delete_file(self, ino: int, when: float = 0.0) -> None:
        """Delete file ``ino``; its blocks die in place."""
        inode = self._live(ino)
        self._unlink(inode.blocks)
        del self.inodes[ino]

    def truncate(self, ino: int, when: float = 0.0) -> None:
        """Truncate file ``ino`` to zero length."""
        inode = self._live(ino)
        self._unlink(inode.blocks)
        inode.blocks = []
        inode.size = 0
        inode.mtime = max(inode.mtime, when)

    def files(self) -> List[LfsInode]:
        """All live files."""
        return list(self.inodes.values())

    def files_modified_since(self, cutoff: float) -> List[LfsInode]:
        """Files with ``mtime >= cutoff``."""
        return [i for i in self.files() if i.mtime >= cutoff]

    # ------------------------------------------------------------------
    # State queries
    # ------------------------------------------------------------------

    def live_blocks(self) -> int:
        """Total live data blocks."""
        return len(self.owner)

    def clean_segments(self) -> int:
        """Segments currently clean (excluding the write head)."""
        return self._clean_count

    def utilization(self) -> float:
        """Live blocks over usable capacity."""
        return self.live_blocks() / self.params.usable_blocks

    def idle_clean(self, target: Optional[int] = None) -> int:
        """Clean during idle time, up to ``target`` clean segments.

        This is the scheduling question the paper's future work raises
        ("the timing of cleaner execution"): cleaning done here is
        charged as *background* work, so later user writes do not stall
        at the low-water mark.  Returns the number of blocks copied.
        """
        before = self.cleaner_blocks_copied
        goal = target if target is not None else self.params.clean_high_water
        self._idle_cleaning = True
        try:
            if self.clean_segments() < goal:
                self._clean_to(goal)
        finally:
            self._idle_cleaning = False
        return self.cleaner_blocks_copied - before

    def write_amplification(self) -> float:
        """(user + cleaner writes) / user writes — the cleaning tax."""
        if self.user_blocks_written == 0:
            return 1.0
        return (
            self.user_blocks_written + self.cleaner_blocks_copied
        ) / self.user_blocks_written

    # ------------------------------------------------------------------
    # The log
    # ------------------------------------------------------------------

    def _log_write(self, ino: int, lbn: int) -> int:
        """Append one block to the log; returns its address."""
        if self._head_offset >= self.params.blocks_per_segment:
            self._advance_head()
        address = (
            self._head_segment * self.params.blocks_per_segment
            + self._head_offset
        )
        self._head_offset += 1
        segment = self.segments[self._head_segment]
        segment.live += 1
        segment.sequence = self._bump()
        self.owner[address] = (ino, lbn)
        return address

    def _advance_head(self) -> None:
        """Seal the current segment and move to a clean one."""
        if (
            not self._cleaning
            and self.clean_segments() <= self.params.clean_low_water
        ):
            self._clean()
        for candidate in range(self.params.nsegments):
            index = (self._head_segment + 1 + candidate) % self.params.nsegments
            if self.segments[index].clean:
                self.segments[index].clean = False
                self._clean_count -= 1
                self.segments[index].sequence = self._bump()
                self._head_segment = index
                self._head_offset = 0
                return
        raise OutOfSpaceError("log is full: no clean segment available")

    def _clean(self) -> None:
        """Run the cleaner until the high water mark is restored."""
        self._clean_to(self.params.clean_high_water)

    def _clean_to(self, target: int) -> None:
        """Clean until ``target`` clean segments are available."""
        self.cleanings += 1
        self._cleaning = True
        try:
            blocks_per_seg = self.params.blocks_per_segment
            while self.clean_segments() < target:
                victims = choose_victims(
                    self.segments,
                    capacity=blocks_per_seg,
                    policy=self.params.cleaner_policy,
                    exclude=self._head_segment,
                    count=1,
                )
                if not victims:
                    return  # nothing cleanable (everything live or clean)
                victim = victims[0]
                base = victim.index * blocks_per_seg
                live = [
                    (address, self.owner[address])
                    for address in range(base, base + blocks_per_seg)
                    if address in self.owner
                ]
                # A fully live victim cannot net any space; cleaning it
                # would spin forever.
                if len(live) >= blocks_per_seg:
                    return
                for address, (ino, lbn) in live:
                    self._kill(address)
                    new_address = self._log_write(ino, lbn)
                    self._place(self.inodes[ino].blocks, lbn, new_address)
                    self.cleaner_blocks_copied += 1
                    if self._idle_cleaning:
                        self.background_copies += 1
                    else:
                        self.foreground_copies += 1
                victim.clean = True
                victim.live = 0
                self._clean_count += 1
        finally:
            self._cleaning = False

    def _place(self, blocks: List[int], lbn: int, address: int) -> None:
        """Point logical block ``lbn`` at ``address``, keeping the pair
        counts; ``lbn == len(blocks)`` appends a block."""
        delta = 0
        if lbn < len(blocks):
            old = blocks[lbn]
            if lbn and old == blocks[lbn - 1] + 1:
                delta -= 1
            if lbn + 1 < len(blocks) and blocks[lbn + 1] == old + 1:
                delta -= 1
            blocks[lbn] = address
        else:
            blocks.append(address)
            if lbn:
                self.countable_pairs += 1
        if lbn and address == blocks[lbn - 1] + 1:
            delta += 1
        if lbn + 1 < len(blocks) and blocks[lbn + 1] == address + 1:
            delta += 1
        self.optimal_pairs += delta

    def _unlink(self, blocks: List[int]) -> None:
        """Kill every block of a file and drop its pairs from the counts."""
        prev = -2
        for address in blocks:
            self._kill(address)
            if address == prev + 1:
                self.optimal_pairs -= 1
            prev = address
        if blocks:
            self.countable_pairs -= len(blocks) - 1

    def _kill(self, address: int) -> None:
        owner = self.owner.pop(address, None)
        if owner is None:
            raise FileNotFoundSimError(f"block {address} has no live owner")
        segment = self.segments[self.params.segment_of_block(address)]
        segment.live -= 1

    def _check_space(self, needed_blocks: int) -> None:
        if needed_blocks <= 0:
            return
        if self.live_blocks() + needed_blocks > self.params.usable_blocks:
            raise OutOfSpaceError(
                f"allocating {needed_blocks} blocks would exceed the "
                f"usable capacity"
            )

    def _bump(self) -> int:
        self._sequence += 1
        return self._sequence

    def _live(self, ino: int) -> LfsInode:
        try:
            return self.inodes[ino]
        except KeyError:
            raise FileNotFoundSimError(f"inode {ino} is not live") from None
