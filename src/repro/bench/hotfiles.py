"""The hot-file ("existing file") benchmark of Section 5.2.

Files touched during the last month of the aging workload stand in for
the active working set of the file system (older files are seldom
accessed, per [Satyanarayanan81]).  The benchmark reads all of them —
sorted by directory, so several files are read from one cylinder group
before moving to the next — and then overwrites them in place, which
preserves their layout and excludes create/allocate overheads from the
write numbers.  Table 2 reports the two throughputs and the set's
aggregate layout score.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Optional

from repro.analysis.layout import score_file_set
from repro.bench.iomodel import FileIOPricer
from repro.bench.timing import BenchmarkRunner, Measurement
from repro.disk.geometry import DiskGeometry
from repro.ffs.filesystem import FileSystem
from repro.storage import DEFAULT_BACKEND, make_storage
from repro.ffs.inode import Inode


@dataclass(frozen=True)
class HotFileResult:
    """Table 2 for one file system."""

    n_hot_files: int
    n_total_files: int
    hot_bytes: int
    total_bytes: int
    layout_score: Optional[float]
    read_throughput: Measurement
    write_throughput: Measurement

    @property
    def fraction_of_files(self) -> float:
        """Hot files as a fraction of all files (paper: 10.5%)."""
        return self.n_hot_files / self.n_total_files if self.n_total_files else 0.0

    @property
    def fraction_of_space(self) -> float:
        """Hot bytes as a fraction of allocated bytes (paper: 19%)."""
        return self.hot_bytes / self.total_bytes if self.total_bytes else 0.0


class HotFileBenchmark:
    """Reads and overwrites the recently modified files of an aged FS."""

    def __init__(
        self,
        fs: FileSystem,
        window_days: float = 30.0,
        runner: Optional[BenchmarkRunner] = None,
        geometry: Optional[DiskGeometry] = None,
        backend: str = DEFAULT_BACKEND,
    ) -> None:
        self.fs = fs
        self.window_days = window_days
        self.runner = runner if runner is not None else BenchmarkRunner()
        self.geometry = geometry if geometry is not None else DiskGeometry()
        self.backend = backend

    def hot_files(self) -> List[Inode]:
        """The hot set: files modified in the last ``window_days``,
        sorted by directory (then inode) as the benchmark reads them."""
        if not self.fs.files():
            return []
        latest = max(inode.mtime for inode in self.fs.files())
        cutoff = latest - self.window_days
        hot = self.fs.files_modified_since(cutoff)
        hot.sort(key=lambda i: (self.fs.directory_of(i.ino).name, i.ino))
        return hot

    def run(self) -> HotFileResult:
        """Measure read and overwrite throughput of the hot set."""
        hot = self.hot_files()
        all_files = self.fs.files()
        hot_bytes = sum(i.size for i in hot)
        device = partial(make_storage, self.geometry, backend=self.backend)

        def timed_read(angle: float) -> float:
            disk = device(initial_angle=angle)
            pricer = FileIOPricer(self.fs, disk)
            for inode in hot:
                pricer.read_directory(self.fs.directory_of(inode.ino).name)
                pricer.read_inode(inode.ino)
                pricer.read_file_data(inode)
            return hot_bytes / (disk.now_ms / 1000.0)

        def timed_write(angle: float) -> float:
            disk = device(initial_angle=angle)
            pricer = FileIOPricer(self.fs, disk)
            for inode in hot:
                pricer.write_file_data(inode)
            return hot_bytes / (disk.now_ms / 1000.0)

        return HotFileResult(
            n_hot_files=len(hot),
            n_total_files=len(all_files),
            hot_bytes=hot_bytes,
            total_bytes=sum(i.size for i in all_files),
            layout_score=score_file_set(hot),
            read_throughput=self.runner.measure(timed_read),
            write_throughput=self.runner.measure(timed_write),
        )
