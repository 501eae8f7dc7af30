"""fsck-lite: cross-checks every redundant structure in the simulator.

The simulator keeps several views of the same allocation state (fragment
bitmap, per-block free counts, per-group free-fragment and free-block
totals, inode block lists, the layout-score pair counts).
``check_filesystem`` rebuilds the ground truth from the live inodes and
verifies every view against it, raising
:class:`~repro.errors.ConsistencyError` on the first mismatch.

Tests call this after every mutation sequence; it is the simulator's
equivalent of running ``fsck`` on the aged file systems.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.layout import optimal_pairs
from repro.errors import ConsistencyError
from repro.ffs.cg import CylinderGroup
from repro.ffs.filesystem import FileSystem


def check_filesystem(fs: FileSystem) -> None:
    """Verify all invariants of ``fs``; raises ConsistencyError on a bug."""
    params = fs.params
    fpb = params.frags_per_block
    cgs = fs.sb.cgs

    # Ground truth in the bitmap's shape, per group: allocated fragments
    # and per-block free counts, claimed in a fixed order (metadata, then
    # each inode's blocks, indirect blocks and tail; a repeat is named).
    meta = params.metadata_blocks_per_cg
    expected = [
        bytearray(b"\x01") * (meta * fpb) + bytes((cg.nblocks - meta) * fpb)
        for cg in cgs
    ]
    counts = [bytearray(meta) + bytes([fpb]) * (cg.nblocks - meta) for cg in cgs]

    def claim(block: int, offset: int, nfrags: int, what: str) -> None:
        if not (0 <= block < params.nblocks and 0 <= offset <= offset + nfrags <= fpb):
            raise ConsistencyError(
                f"{what} claims fragment run ({block}, {offset}, {nfrags}) "
                f"outside the disk"
            )
        g = block // params.blocks_per_cg
        local = block - cgs[g].base
        lo = local * fpb + offset
        taken = expected[g].find(1, lo, lo + nfrags)
        if taken != -1:
            raise ConsistencyError(
                f"fragment {(block, taken - local * fpb)} doubly referenced "
                f"(second claim by {what})"
            )
        expected[g][lo : lo + nfrags] = b"\x01" * nfrags
        counts[g][local] -= nfrags

    for inode in fs.inodes.values():
        what = f"inode {inode.ino}"
        for block in inode.blocks:
            claim(block, 0, fpb, what)
        for block in inode.indirect_blocks:
            claim(block, 0, fpb, f"indirect of {what}")
        if inode.tail is not None:
            claim(*inode.tail, f"tail of {what}")

    # Whole columns compared; the first difference is sought only if any.
    for cg, bits, free in zip(cgs, expected, counts):
        _compare_group(cg, bits, free, fpb)

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

    # The layout-score pair counts must match a recount.
    optimal = countable = 0
    for inode in fs.inodes.values():
        o, c = optimal_pairs(inode.data_block_list())
        optimal += o
        countable += c
    if (fs.optimal_pairs, fs.countable_pairs) != (optimal, countable):
        raise ConsistencyError(
            f"pair counts {fs.optimal_pairs}/{fs.countable_pairs} != "
            f"recount {optimal}/{countable}"
        )


def _compare_group(
    cg: CylinderGroup, expected: bytearray, counts: bytearray, fpb: int
) -> None:
    """Check one group's bitmap, per-block counts and totals against the
    claimed columns, naming the first mismatch in address order: a
    block's fragments before its count, every block before the totals."""
    bits, free = cg.bitmap._bits, cg.bitmap._free_in_block
    bad = _first_difference(bits, expected)
    # Blocks before the first bad fragment hold the expected bits, so
    # ``counts`` is their recount.
    limit = cg.nblocks if bad == -1 else bad // fpb
    block = _first_difference(free[:limit], counts[:limit])
    if block != -1:
        raise ConsistencyError(
            f"free-in-block count wrong for block {cg.base + block}: "
            f"{free[block]} != {counts[block]}"
        )
    if bad != -1:
        said = "free" if cg.bitmap.is_frag_free(*divmod(bad, fpb)) else "allocated"
        raise ConsistencyError(
            f"bitmap mismatch at block {cg.base + bad // fpb} frag {bad % fpb}: "
            f"bitmap says {said}, inodes say "
            f"{'allocated' if said == 'free' else 'free'}"
        )
    if cg.free_frags != bits.count(0):
        raise ConsistencyError(
            f"cg {cg.index} free_frags {cg.free_frags} != recount {bits.count(0)}"
        )
    if cg.free_blocks != counts.count(fpb):
        raise ConsistencyError(
            f"cg {cg.index} free_blocks {cg.free_blocks} != recount "
            f"{counts.count(fpb)}"
        )


def _first_difference(a: bytearray, b: bytearray) -> int:
    """Index of the first byte where ``a`` and ``b`` differ, -1 if none."""
    if a == b:
        return -1
    return next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)
