"""Pricing file operations with a storage model.

Bridges the layout world (inodes, block lists) and the timing world
(``(start_byte, nbytes)`` requests served by a
:class:`~repro.storage.StorageModel`).  The ``*_requests`` methods build
the request list of one operation, so a benchmark can build a whole
phase once and serve it at every initial angle; the pricing methods
serve one file's reads.  The policies here encode the caching
assumptions the paper's numbers imply:

* **Data** always moves on the disk (the benchmark working sets exceed
  what survives in the 64 MB buffer cache across phases).
* **Metadata reads** are cached at block granularity within a phase: the
  inode block of a file is read only when it differs from the previous
  file's inode block (sequential inodes share an 8 KB block), and a
  directory's block is read once per directory.
* **Metadata writes on create** are synchronous and sector-sized — one
  to the inode block, one to the directory block — which is what makes
  small-file create throughput insensitive to layout (Section 5.1).
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.disk.model import IOKind
from repro.disk.request import Extent, byte_requests, extents_of_blocks
from repro.ffs.filesystem import FileSystem
from repro.ffs.inode import Inode
from repro.storage import StorageModel

#: One ``(start_byte, nbytes)`` device request.
Request = Tuple[int, int]


class FileIOPricer:
    """Prices reads/writes/creates of simulated files on one storage model.

    Backend-agnostic: ``disk`` is any :class:`~repro.storage.StorageModel`
    (the mechanical disk or the FTL-backed SSD).
    """

    def __init__(self, fs: FileSystem, disk: StorageModel) -> None:
        self.fs = fs
        self.disk = disk
        self.params = fs.params
        self._warm_metadata_blocks: Set[int] = set()

    # ------------------------------------------------------------------
    # Cache control
    # ------------------------------------------------------------------

    def drop_caches(self) -> None:
        """Forget cached metadata (start of a benchmark phase)."""
        self._warm_metadata_blocks.clear()
        self.disk.drop_caches()

    # ------------------------------------------------------------------
    # Request lists
    # ------------------------------------------------------------------

    def file_extents(self, inode: Inode) -> List[Extent]:
        """The extent list a data transfer of ``inode`` would issue."""
        return extents_of_blocks(
            inode.data_block_list(), self.params.block_size, self._capacity(inode)
        )

    def data_requests(self, inode: Inode) -> List[Request]:
        """The requests a clustered transfer of ``inode``'s data issues.

        The layout is frozen while a benchmark phase runs, so harnesses
        build a phase's list once and serve it at every initial angle.
        """
        return byte_requests(
            self.file_extents(inode),
            self.params.block_size,
            self.disk.geometry.max_transfer_bytes,
            self.disk.fs_offset,
        )

    def inode_read_requests(self, ino: int) -> List[Request]:
        """The read of ``ino``'s inode block, unless already cached."""
        return self._metadata_read(self.params.inode_block(ino), self.params.block_size)

    def directory_read_requests(self, dir_name: str) -> List[Request]:
        """The reads of a directory's inode and content blocks, unless
        already cached."""
        directory = self.fs.directories[dir_name]
        dir_inode = self.fs.inodes[directory.ino]
        requests = self.inode_read_requests(directory.ino)
        if dir_inode.tail is not None:
            requests += self._metadata_read(dir_inode.tail[0], self.params.frag_size)
        return requests

    def create_metadata_requests(self, ino: int) -> List[Request]:
        """Synchronous metadata updates for one create (Section 5.1).

        Two sector-sized synchronous writes: the new inode and the
        directory entry (the directory's content block, or its inode
        block while it has none).  These are what dominate small-file
        create time.
        """
        directory = self.fs.directory_of(ino)
        dir_inode = self.fs.inodes[directory.ino]
        dir_block = (
            dir_inode.tail[0]
            if dir_inode.tail is not None
            else self.params.inode_block(directory.ino)
        )
        sector = self.disk.geometry.sector_size
        block_size = self.params.block_size
        return [
            (self.disk.block_to_byte(self.params.inode_block(ino), block_size), sector),
            (self.disk.block_to_byte(dir_block, block_size), sector),
        ]

    # ------------------------------------------------------------------
    # Pricing one operation
    # ------------------------------------------------------------------

    def read_file_data(self, inode: Inode) -> float:
        """Read all data blocks of ``inode``; returns elapsed ms."""
        return self.disk.serve(IOKind.READ, self.data_requests(inode))

    def read_file_data_unclustered(
        self, inode: Inode, think_ms: float = 2.0
    ) -> float:
        """Read the file one block at a time with host think time between.

        This is how pre-clustering FFS (and the 4.3BSD I/O path) drove
        the disk: one block per request, with per-block host processing
        between requests.  On a bufferless disk this access pattern is
        what the ``rotdelay`` layout parameter existed for.
        """
        elapsed = 0.0
        frag = self.params.frag_size
        remaining = -(-inode.size // frag) * frag
        for block in inode.data_block_list():
            nbytes = min(self.params.block_size, remaining)
            if nbytes <= 0:
                break
            byte = self.disk.block_to_byte(block, self.params.block_size)
            elapsed += self.disk.access(IOKind.READ, byte, nbytes)
            self.disk.idle(think_ms)
            elapsed += think_ms
            remaining -= nbytes
        return elapsed

    def read_inode(self, ino: int) -> float:
        """Read the inode's block unless it is already cached."""
        return self.disk.serve(IOKind.READ, self.inode_read_requests(ino))

    # ------------------------------------------------------------------

    def _metadata_read(self, block: int, nbytes: int) -> List[Request]:
        """A read of ``nbytes`` at ``block``, unless this phase read it."""
        if block in self._warm_metadata_blocks:
            return []
        self._warm_metadata_blocks.add(block)
        return [(self.disk.block_to_byte(block, self.params.block_size), nbytes)]

    def _capacity(self, inode: Inode) -> Optional[int]:
        """File size rounded up to fragment granularity for transfers.

        Transfers move whole fragments; the last fragment is moved even
        when partially filled.
        """
        frag = self.params.frag_size
        if inode.size <= 0:
            return None
        nchunks = inode.n_chunks()
        rounded = -(-inode.size // frag) * frag
        # extents_of_blocks checks capacity consistency at block level.
        full_capacity = nchunks * self.params.block_size
        overshoot = full_capacity - rounded
        if overshoot < 0 or overshoot >= self.params.block_size:
            return None
        return rounded
