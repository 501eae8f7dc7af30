"""The sequential I/O benchmark of Section 5.1.

Thirty-two megabytes of data, decomposed into files of the size under
test, spread across subdirectories of at most twenty-five files (so the
data lands in multiple cylinder groups, as FFS puts all files of one
directory into its group).  Two phases:

1. **Create/write** — every file is created and written (4 MB units for
   larger files, which the simulator's write pipeline already models);
   creation includes the synchronous metadata updates that dominate
   small-file create time.
2. **Read** — the files are read back in creation order.

Throughput is measured in simulated time; each phase is repeated across
initial platter angles by a :class:`~repro.bench.timing.BenchmarkRunner`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Set

from repro.analysis.layout import score_file_set
from repro.bench.iomodel import FileIOPricer
from repro.bench.timing import BenchmarkRunner, Measurement
from repro.disk.geometry import DiskGeometry
from repro.disk.model import IOKind
from repro.errors import InvalidRequestError
from repro.ffs.filesystem import FileSystem
from repro.storage import DEFAULT_BACKEND, make_storage
from repro.units import MB


@dataclass(frozen=True)
class SequentialResult:
    """Outcome of one file-size point of the sequential benchmark."""

    file_size: int
    n_files: int
    write_throughput: Measurement
    read_throughput: Measurement
    #: Average layout score of the files the benchmark created
    #: (Figure 5); None when the size yields files of fewer than two
    #: chunks.
    layout_score: Optional[float]


class SequentialIOBenchmark:
    """Runs Section 5.1 against one (typically aged) file system.

    The benchmark mutates the file system it is given (it creates the
    test files); callers wanting to test several sizes independently
    should hand each run its own copy of the aged file system.
    """

    def __init__(
        self,
        fs: FileSystem,
        total_bytes: int = 32 * MB,
        files_per_dir: int = 25,
        runner: Optional[BenchmarkRunner] = None,
        geometry: Optional[DiskGeometry] = None,
        backend: str = DEFAULT_BACKEND,
        dir_prefix: str = "seqbench",
    ):
        self.fs = fs
        self.total_bytes = total_bytes
        self.files_per_dir = files_per_dir
        self.runner = runner if runner is not None else BenchmarkRunner()
        self.geometry = geometry if geometry is not None else DiskGeometry()
        self.backend = backend
        self.dir_prefix = dir_prefix

    def run(self, file_size: int) -> SequentialResult:
        """Create, write, and read ``total_bytes`` of ``file_size`` files."""
        if file_size <= 0:
            raise InvalidRequestError(f"bad benchmark file size {file_size}")
        n_files = max(1, self.total_bytes // file_size)
        inos = self._create_files(file_size, n_files)
        inodes = [self.fs.inode(ino) for ino in inos]
        data_bytes = sum(i.size for i in inodes)

        # The layout is frozen once the files exist, so every angle of
        # every phase issues the *same* disk requests.  Resolve extents
        # and metadata blocks once here; the timed closures then contain
        # only disk-model arithmetic.
        params = self.fs.params
        block_size = params.block_size
        device = partial(make_storage, self.geometry, backend=self.backend)
        probe = FileIOPricer(self.fs, device())
        plan = []  # (inode_block, dir_block, read_inode_block?, extents)
        warm: Set[int] = set()
        for ino in inos:
            inode = self.fs.inode(ino)
            extents = probe.file_extents(inode)
            inode_block = params.inode_block(ino)
            directory = self.fs.directory_of(ino)
            dir_inode = self.fs.inodes[directory.ino]
            dir_block = (
                dir_inode.tail[0]
                if dir_inode.tail is not None
                else params.inode_block(directory.ino)
            )
            # read_inode() caches at block granularity per phase; the
            # warm set is deterministic, so resolve the misses up front.
            read_block = None if inode_block in warm else inode_block
            warm.add(inode_block)
            plan.append((inode_block, dir_block, read_block, extents))

        def timed_write(angle: float) -> float:
            disk = device(initial_angle=angle)
            sync_write = disk.synchronous_metadata_write
            transfer = disk.transfer_extents
            for inode_block, dir_block, _read_block, extents in plan:
                sync_write(inode_block, block_size)
                sync_write(dir_block, block_size)
                transfer(IOKind.WRITE, extents, block_size)
            return data_bytes / (disk.now_ms / 1000.0)

        def timed_read(angle: float) -> float:
            disk = device(initial_angle=angle)
            access = disk.access
            transfer = disk.transfer_extents
            for _inode_block, _dir_block, read_block, extents in plan:
                if read_block is not None:
                    byte = disk.block_to_byte(read_block, block_size)
                    access(IOKind.READ, byte, block_size)
                transfer(IOKind.READ, extents, block_size)
            return data_bytes / (disk.now_ms / 1000.0)

        write_tp = self.runner.measure(timed_write)
        read_tp = self.runner.measure(timed_read)
        return SequentialResult(
            file_size=file_size,
            n_files=n_files,
            write_throughput=write_tp,
            read_throughput=read_tp,
            layout_score=score_file_set(inodes),
        )

    def _create_files(self, file_size: int, n_files: int) -> List[int]:
        inos: List[int] = []
        directory = None
        for index in range(n_files):
            if index % self.files_per_dir == 0:
                name = f"{self.dir_prefix}_{file_size}_{index // self.files_per_dir}"
                directory = self.fs.make_directory(name)
            inos.append(self.fs.create_file(directory, file_size))
        return inos
