"""fsck-lite: cross-checks every redundant structure in the simulator.

The simulator keeps several views of the same allocation state (fragment
bitmap, per-block free counts, per-group free-fragment and free-block
totals, inode block lists).  ``check_filesystem`` rebuilds the ground
truth from the live inodes and verifies every view against it, raising
:class:`~repro.errors.ConsistencyError` on the first mismatch.

Tests call this after every mutation sequence; it is the simulator's
equivalent of running ``fsck`` on the aged file systems.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from repro.errors import ConsistencyError
from repro.ffs.filesystem import FileSystem


def check_filesystem(fs: FileSystem) -> None:
    """Verify all invariants of ``fs``; raises ConsistencyError on a bug."""
    params = fs.params
    fpb = params.frags_per_block

    # Ground truth: which fragments should be allocated?
    expected: Set[Tuple[int, int]] = set()  # (global block, frag offset)

    def claim_block(block: int, what: str) -> None:
        for off in range(fpb):
            _claim(expected, block, off, what)

    for cg in fs.sb.cgs:
        for local in range(params.metadata_blocks_per_cg):
            claim_block(cg.base + local, f"metadata of cg {cg.index}")

    for inode in fs.inodes.values():
        for block in inode.blocks:
            claim_block(block, f"inode {inode.ino}")
        for block in inode.indirect_blocks:
            claim_block(block, f"indirect of inode {inode.ino}")
        if inode.tail is not None:
            block, offset, nfrags = inode.tail
            for off in range(offset, offset + nfrags):
                _claim(expected, block, off, f"tail of inode {inode.ino}")

    # Check the bitmap fragment by fragment and the derived structures.
    for cg in fs.sb.cgs:
        free_frags = 0
        free_blocks = 0
        for local in range(cg.nblocks):
            block = cg.base + local
            block_free = 0
            for off in range(fpb):
                bit_allocated = not cg.bitmap.is_frag_free(local, off)
                should = (block, off) in expected
                if bit_allocated != should:
                    raise ConsistencyError(
                        f"bitmap mismatch at block {block} frag {off}: "
                        f"bitmap says {'allocated' if bit_allocated else 'free'}, "
                        f"inodes say {'allocated' if should else 'free'}"
                    )
                if not bit_allocated:
                    block_free += 1
            if cg.bitmap.free_in_block(local) != block_free:
                raise ConsistencyError(
                    f"free-in-block count wrong for block {block}: "
                    f"{cg.bitmap.free_in_block(local)} != {block_free}"
                )
            free_frags += block_free
            if block_free == fpb:
                free_blocks += 1
        if cg.free_frags != free_frags:
            raise ConsistencyError(
                f"cg {cg.index} free_frags {cg.free_frags} != recount {free_frags}"
            )
        if cg.free_blocks != free_blocks:
            raise ConsistencyError(
                f"cg {cg.index} free_blocks {cg.free_blocks} != recount {free_blocks}"
            )

    # Inode table consistency.
    for ino, inode in fs.inodes.items():
        if inode.ino != ino:
            raise ConsistencyError(f"inode table key {ino} != inode.ino {inode.ino}")
        chunks = inode.n_chunks()
        capacity = len(inode.blocks) * params.block_size
        if inode.tail is not None:
            capacity += inode.tail[2] * params.frag_size
        if inode.size > capacity:
            raise ConsistencyError(
                f"inode {ino} size {inode.size} exceeds capacity {capacity}"
            )
        if chunks and inode.size <= 0 and not inode.is_dir:
            raise ConsistencyError(f"inode {ino} has blocks but zero size")

    # Directory membership round-trip.
    member_count: Dict[int, int] = {}
    for directory in fs.directories.values():
        for child in directory.list_children():
            member_count[child] = member_count.get(child, 0) + 1
            if child not in fs.inodes:
                raise ConsistencyError(
                    f"directory {directory.name} lists dead inode {child}"
                )
    for ino, inode in fs.inodes.items():
        if inode.is_dir:
            continue
        if member_count.get(ino, 0) != 1:
            raise ConsistencyError(
                f"file inode {ino} appears in {member_count.get(ino, 0)} directories"
            )


def _claim(
    expected: Set[Tuple[int, int]], block: int, offset: int, what: str
) -> None:
    key = (block, offset)
    if key in expected:
        raise ConsistencyError(
            f"fragment {key} doubly referenced (second claim by {what})"
        )
    expected.add(key)

