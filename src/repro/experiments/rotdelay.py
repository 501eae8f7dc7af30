"""The rotational gap, before and after track buffers (Table 1's "0").

FFS's ``rotdelay`` parameter asks the allocator to leave a rotational
gap between a file's successive blocks, so that on a dumb disk driven
one block at a time, the next block arrives under the head right after
the host finishes processing the previous one.  Table 1 sets it to 0
because the benchmark drive has a track buffer and the kernel clusters
I/O — but *why* 0 is right is an experiment the paper leaves implicit.

This experiment runs it: a fresh file system laid out with rotational
gaps of 0..3 blocks, read two ways —

* **1985 mode** — one block per request with per-block host think time,
  on a bufferless drive (track buffer disabled);
* **1996 mode** — clustered transfers on the Table 1 drive.

The historical rationale appears on one diagonal (gapped layout wins in
1985 mode) and Table 1's choice on the other (contiguous layout wins in
1996 mode).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Tuple

from repro.analysis.report import render_table
from repro.bench.iomodel import FileIOPricer
from repro.bench.timing import BenchmarkRunner
from repro.disk.geometry import DiskGeometry
from repro.experiments.config import get_preset
from repro.ffs.filesystem import FileSystem
from repro.storage import DEFAULT_BACKEND, make_storage
from repro.units import KB, MB


@dataclass(frozen=True)
class RotdelayResult:
    """Read throughput per (rotdelay, I/O mode)."""

    #: (rotdelay, mode) -> bytes/second; mode in {"1985", "1996"}
    throughput: Dict[Tuple[int, str], float]

    def winner(self, mode: str) -> int:
        """The rotdelay value with the higher throughput in ``mode``."""
        candidates = {
            rd: tp for (rd, m), tp in self.throughput.items() if m == mode
        }
        return max(candidates, key=candidates.get)

    def render(self) -> str:
        """Text table of the study's results."""
        gaps = sorted({rd for rd, _m in self.throughput})
        rows = []
        for rd in gaps:
            rows.append(
                (
                    str(rd),
                    f"{self.throughput[(rd, '1985')] / MB:.2f}",
                    f"{self.throughput[(rd, '1996')] / MB:.2f}",
                )
            )
        table = render_table(
            [
                "rotdelay (blocks)",
                "1985 mode (no buffer, block-at-a-time)",
                "1996 mode (track buffer, clustered)",
            ],
            rows,
            title="Rotational-gap layout vs. disk generation (read MB/sec)",
        )
        return table + (
            f"\n  winners: 1985 mode -> rotdelay {self.winner('1985')}, "
            f"1996 mode -> rotdelay {self.winner('1996')} "
            f"(Table 1 uses 0 for the track-buffer drive)"
        )


@lru_cache(maxsize=None)
def run(
    preset: str = "small",
    backend: str = DEFAULT_BACKEND,
    file_size: int = 96 * KB,
) -> RotdelayResult:
    """Measure both layouts under both disk generations."""
    p = get_preset(preset)
    runner = BenchmarkRunner(p.bench_repetitions)
    buffered = DiskGeometry()
    bufferless = dataclasses.replace(buffered, track_buffer_bytes=0)

    throughput: Dict[Tuple[int, str], float] = {}
    for rotdelay in (0, 1, 2, 3):
        params = dataclasses.replace(p.params, rotdelay=rotdelay)
        fs = FileSystem(params, policy="ffs")
        directory = fs.make_directory("bench")
        n_files = max(4, min(32, (2 * MB) // file_size))
        inos = [fs.create_file(directory, file_size) for _ in range(n_files)]
        total = sum(fs.inode(i).size for i in inos)

        def timed(angle: float, geometry, unclustered: bool) -> float:
            disk = make_storage(geometry, initial_angle=angle, backend=backend)
            pricer = FileIOPricer(fs, disk)
            for ino in inos:
                inode = fs.inode(ino)
                if unclustered:
                    pricer.read_file_data_unclustered(inode)
                else:
                    pricer.read_file_data(inode)
            return total / (disk.now_ms / 1000.0)

        throughput[(rotdelay, "1985")] = runner.measure(
            lambda a: timed(a, bufferless, True)
        ).mean
        throughput[(rotdelay, "1996")] = runner.measure(
            lambda a: timed(a, buffered, False)
        ).mean
    return RotdelayResult(throughput=throughput)
