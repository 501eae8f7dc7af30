"""Invariant checker for the log-structured file system.

The LFS keeps three redundant structures — inode block maps, the
owner (reverse) map, and the segment usage table — and the cleaner
rewrites all three at once.  ``check_lfs`` verifies they agree, plus the
log-head and capacity invariants and the incremental counters the file
system keeps (layout-score pair counts, clean-segment count), raising
:class:`~repro.errors.ConsistencyError` on the first mismatch.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.analysis.layout import optimal_pairs
from repro.errors import ConsistencyError
from repro.lfs.filesystem import LogStructuredFS


def check_lfs(fs: LogStructuredFS) -> None:
    """Verify all invariants of ``fs``."""
    params = fs.params

    # Inode maps and the owner map must be a bijection.
    expected: Dict[int, Tuple[int, int]] = {}
    for ino, inode in fs.inodes.items():
        if inode.ino != ino:
            raise ConsistencyError(f"inode table key {ino} != {inode.ino}")
        needed = -(-inode.size // params.block_size) if inode.size else 0
        if len(inode.blocks) != needed:
            raise ConsistencyError(
                f"inode {ino}: {len(inode.blocks)} blocks for size "
                f"{inode.size} (expected {needed})"
            )
        for lbn, address in enumerate(inode.blocks):
            if not 0 <= address < params.nblocks:
                raise ConsistencyError(
                    f"inode {ino} block {lbn} address {address} out of range"
                )
            if address in expected:
                raise ConsistencyError(
                    f"address {address} referenced by both {expected[address]} "
                    f"and ({ino}, {lbn})"
                )
            expected[address] = (ino, lbn)
    if expected != fs.owner:
        missing = set(expected) - set(fs.owner)
        extra = set(fs.owner) - set(expected)
        raise ConsistencyError(
            f"owner map out of sync: {len(missing)} missing, {len(extra)} stale"
        )

    # The layout-score pair counts must match a recount.
    optimal = countable = 0
    for inode in fs.inodes.values():
        o, c = optimal_pairs(inode.blocks)
        optimal += o
        countable += c
    if (fs.optimal_pairs, fs.countable_pairs) != (optimal, countable):
        raise ConsistencyError(
            f"pair counts {fs.optimal_pairs}/{fs.countable_pairs} != "
            f"recount {optimal}/{countable}"
        )

    # Segment usage table must match a recount.
    per_segment: Dict[int, int] = {}
    for address in fs.owner:
        seg = params.segment_of_block(address)
        per_segment[seg] = per_segment.get(seg, 0) + 1
    for segment in fs.segments:
        recount = per_segment.get(segment.index, 0)
        if segment.live != recount:
            raise ConsistencyError(
                f"segment {segment.index} live count {segment.live} != "
                f"recount {recount}"
            )
        if segment.clean and recount:
            raise ConsistencyError(
                f"segment {segment.index} marked clean but has "
                f"{recount} live blocks"
            )

    clean = sum(1 for segment in fs.segments if segment.clean)
    if fs.clean_segments() != clean:
        raise ConsistencyError(
            f"clean segment count {fs.clean_segments()} != recount {clean}"
        )

    # The log head must be a dirty segment with a sane offset.
    head = fs.segments[fs._head_segment]
    if head.clean:
        raise ConsistencyError("log head points at a clean segment")
    if not 0 <= fs._head_offset <= params.blocks_per_segment:
        raise ConsistencyError(f"log head offset {fs._head_offset} out of range")

    # Capacity invariant.
    if fs.live_blocks() > params.usable_blocks:
        raise ConsistencyError(
            f"live blocks {fs.live_blocks()} exceed usable capacity "
            f"{params.usable_blocks}"
        )
