"""I/O extents and the byte requests they become.

The benchmarks never price individual file blocks.  They work in
*extents* — maximal runs of physically contiguous blocks — because that
is what the FFS clustering layer (``ffs_read``/``ffs_write`` with
``maxcontig``) builds before issuing transfers.  This module holds the
extent representation, the logic that turns an inode's block list into
the extent sequence a clustered FFS would issue, and the one routine
that splits extents into the ``(start_byte, nbytes)`` requests a
storage model serves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple


@dataclass(frozen=True)
class Extent:
    """A physically contiguous disk region, in file-system blocks.

    ``start`` is the first file-system block address, ``nblocks`` the run
    length.  ``nbytes`` may be smaller than ``nblocks * block_size`` for a
    trailing partial block; the timing model charges transfer time for the
    actual bytes moved.
    """

    start: int
    nblocks: int
    nbytes: int

    def __post_init__(self) -> None:
        if self.nblocks <= 0:
            raise ValueError(f"extent must cover >= 1 block: {self}")
        if self.nbytes <= 0:
            raise ValueError(f"extent must cover >= 1 byte: {self}")

    @property
    def end(self) -> int:
        """First block address *after* the extent."""
        return self.start + self.nblocks


def extents_of_blocks(
    blocks: Sequence[int],
    block_size: int,
    file_size: "int | None" = None,
) -> List[Extent]:
    """Coalesce an ordered block list into maximal contiguous extents.

    ``blocks`` is the logical-order block list of a file (as stored in its
    inode).  Adjacent logical blocks whose physical addresses are also
    adjacent join the same extent.  If ``file_size`` is given, the final
    extent's byte count is trimmed so partial tail blocks transfer only the
    bytes they hold.
    """
    if not blocks:
        return []
    extents: List[Extent] = []
    run_start = blocks[0]
    run_len = 1
    for addr in blocks[1:]:
        if addr == run_start + run_len:
            run_len += 1
        else:
            extents.append(Extent(run_start, run_len, run_len * block_size))
            run_start = addr
            run_len = 1
    extents.append(Extent(run_start, run_len, run_len * block_size))

    if file_size is not None:
        total_capacity = len(blocks) * block_size
        overshoot = total_capacity - file_size
        if overshoot >= block_size or overshoot < 0:
            raise ValueError(
                f"file_size {file_size} inconsistent with {len(blocks)} "
                f"blocks of {block_size} bytes"
            )
        if overshoot:
            last = extents[-1]
            extents[-1] = Extent(last.start, last.nblocks, last.nbytes - overshoot)
    return extents


def coalesce_extents(extents: Iterable[Extent], block_size: int) -> List[Extent]:
    """Merge physically adjacent extents in an already-ordered sequence.

    Useful when concatenating the extent lists of several files that happen
    to be laid out back to back (the hot-file benchmark reads files sorted
    by directory, so this situation is common on a well-clustered disk).
    Extents only merge when the earlier one is *full* (covers all the bytes
    of its blocks); a partial tail block breaks physical contiguity on the
    real disk too.
    """
    merged: List[Extent] = []
    for ext in extents:
        if (
            merged
            and merged[-1].end == ext.start
            and merged[-1].nbytes == merged[-1].nblocks * block_size
        ):
            prev = merged.pop()
            merged.append(
                Extent(prev.start, prev.nblocks + ext.nblocks, prev.nbytes + ext.nbytes)
            )
        else:
            merged.append(ext)
    return merged


def byte_requests(
    extents: Iterable[Extent],
    block_size: int,
    max_transfer_bytes: int,
    fs_offset: int = 0,
) -> List[Tuple[int, int]]:
    """The ``(start_byte, nbytes)`` requests that transfer ``extents``.

    Each extent is split so no single transfer exceeds the hardware
    maximum, exactly as the FFS clustering layer would.  Section 5.1: the
    Bustek controller caps transfers at 64 KB, so a 72 KB contiguous file
    still needs two requests — the source of the write-throughput drop
    past 64 KB.  Block addresses become linear byte addresses relative to
    the partition's ``fs_offset``.  The whole list is built and checked
    before any request is served, so an extent whose bytes run out before
    its blocks do raises here.
    """
    max_blocks = max(1, max_transfer_bytes // block_size)
    requests: List[Tuple[int, int]] = []
    for ext in extents:
        block, blocks_left, bytes_left = ext.start, ext.nblocks, ext.nbytes
        while blocks_left > 0:
            take = min(max_blocks, blocks_left)
            take_bytes = min(take * block_size, bytes_left)
            if take_bytes <= 0:
                raise ValueError(f"{ext} splits into a request of 0 bytes")
            requests.append((fs_offset + block * block_size, take_bytes))
            block += take
            blocks_left -= take
            bytes_left -= take_bytes
    return requests
