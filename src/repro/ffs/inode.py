"""Inodes: per-file layout state.

The simulator does not store file contents, so an inode is the file's
*layout*: the ordered list of full data blocks, an optional fragment tail
(only legal while the file still fits in its direct blocks, as in real
FFS), and the addresses of any indirect blocks.  The indirect blocks
matter to the study twice over: they consume space, and — per footnote 1
of the paper — allocating one moves the file to a *different cylinder
group*, which produces the layout-score and throughput dip at 96–104 KB.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.ffs.params import FSParams

FragTail = Tuple[int, int, int]  # (global block, frag offset, nfrags)


@dataclass(slots=True)
class Inode:
    """Layout record for one file (or directory)."""

    ino: int
    is_dir: bool = False
    size: int = 0
    ctime: float = 0.0
    mtime: float = 0.0
    #: Cylinder group of the directory the file lives in; the first data
    #: block is allocated here.
    dir_cg: int = 0
    #: Full data blocks in logical order (global block addresses).
    blocks: List[int] = field(default_factory=list)
    #: Fragment tail, present only while the file fits in direct blocks.
    tail: Optional[FragTail] = None
    #: Indirect (metadata) blocks, in allocation order.
    indirect_blocks: List[int] = field(default_factory=list)
    #: Cylinder group new data blocks are currently drawn from; changes
    #: when an indirect block is allocated (paper footnote 1).
    alloc_cg: int = 0
    #: Cluster-flush frontier: the logical blocks below it have already
    #: been handed to the policy's window hooks.  Images do not store
    #: it; a restored file starts at ``len(blocks)``.
    flushed: int = field(default=0, compare=False, repr=False)

    def clone(self) -> "Inode":
        """An independent copy (block lists copied, scalars shared)."""
        twin = Inode.__new__(Inode)
        twin.ino = self.ino
        twin.is_dir = self.is_dir
        twin.size = self.size
        twin.ctime = self.ctime
        twin.mtime = self.mtime
        twin.dir_cg = self.dir_cg
        twin.blocks = list(self.blocks)
        twin.tail = self.tail
        twin.indirect_blocks = list(self.indirect_blocks)
        twin.alloc_cg = self.alloc_cg
        twin.flushed = self.flushed
        return twin

    # ------------------------------------------------------------------
    # Derived layout facts
    # ------------------------------------------------------------------

    def data_block_list(self) -> List[int]:
        """Block addresses of each 8 KB chunk of the file, in file order.

        The fragment tail contributes the address of the block its
        fragments live in; this is the list the layout score is computed
        over (the paper scores data blocks, not indirect blocks).
        """
        out = list(self.blocks)
        if self.tail is not None:
            out.append(self.tail[0])
        return out

    def n_chunks(self) -> int:
        """Number of 8 KB chunks, counting a fragment tail as one."""
        return len(self.blocks) + (1 if self.tail is not None else 0)

    def frags_used(self, params: FSParams) -> int:
        """Fragments consumed, including indirect blocks."""
        fpb = params.frags_per_block
        n = len(self.blocks) * fpb + len(self.indirect_blocks) * fpb
        if self.tail is not None:
            n += self.tail[2]
        return n

    def indirect_boundaries(self, params: FSParams) -> List[int]:
        """Logical block numbers at which indirect blocks are required.

        With 8 KB blocks and 4-byte pointers the single indirect covers
        2048 blocks, so for the file sizes in the paper only the first
        boundary (block 12) and occasionally the second matter.
        """
        nindir = params.block_size // 4
        bounds = [params.ndaddr]
        nxt = params.ndaddr + nindir
        while nxt <= len(self.blocks):
            bounds.append(nxt)
            nxt += nindir
        return bounds

    def needs_indirect_at(self, lbn: int, params: FSParams) -> bool:
        """Whether writing logical block ``lbn`` allocates an indirect block.

        True exactly at the first block covered by each indirect block
        (the boundary blocks of :meth:`indirect_boundaries`).
        """
        if lbn < params.ndaddr:
            return False
        nindir = params.block_size // 4
        return (lbn - params.ndaddr) % nindir == 0
