"""Figure 4: sequential read/write throughput vs. file size.

The benchmark of Section 5.1 on both aged file systems, with the
raw-disk throughputs as reference lines.  Shape targets:

* realloc at or above FFS nearly everywhere;
* a sharp dip in every curve at 104 KB, where the first indirect block
  forces a cylinder-group switch;
* write throughput under realloc dropping after 64 KB (files larger
  than the maximum transfer lose a rotation between back-to-back
  writes);
* for large files, realloc's write throughput meeting or exceeding raw
  write throughput (imperfect layout turns lost rotations into cheaper
  short seeks).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List

from repro.analysis.report import render_chart, render_csv, render_table
from repro.bench.sequential import SequentialResult
from repro.disk.raw import raw_read_throughput, raw_write_throughput
from repro.experiments.config import aged_sequential, get_preset
from repro.storage import DEFAULT_BACKEND
from repro.units import KB, MB


@dataclass(frozen=True)
class Fig4Result:
    """Throughput series per policy plus the raw-disk reference."""

    sizes: List[int]
    results: Dict[str, Dict[int, SequentialResult]]  # policy -> size -> result
    raw_read: float
    raw_write: float

    def read_series(self, policy: str) -> List[float]:
        """Read throughput (bytes/s) per size for ``policy``."""
        return [self.results[policy][s].read_throughput.mean for s in self.sizes]

    def write_series(self, policy: str) -> List[float]:
        """Write throughput (bytes/s) per size for ``policy``."""
        return [self.results[policy][s].write_throughput.mean for s in self.sizes]

    def csv_text(self) -> str:
        """CSV of the throughput series in bytes/second."""
        rows = []
        for s in self.sizes:
            rows.append(
                (
                    s,
                    self.results["ffs"][s].read_throughput.mean,
                    self.results["realloc"][s].read_throughput.mean,
                    self.results["ffs"][s].write_throughput.mean,
                    self.results["realloc"][s].write_throughput.mean,
                    self.raw_read,
                    self.raw_write,
                )
            )
        return render_csv(
            [
                "size_bytes", "read_ffs", "read_realloc",
                "write_ffs", "write_realloc", "raw_read", "raw_write",
            ],
            rows,
        )

    def render(self) -> str:
        """ASCII version of both panels of Figure 4."""
        mb = [s / 1.0 for s in self.sizes]
        read_chart = render_chart(
            [
                ("Raw Read", mb, [self.raw_read / MB] * len(self.sizes)),
                ("FFS + Realloc", mb,
                 [v / MB for v in self.read_series("realloc")]),
                ("FFS", mb, [v / MB for v in self.read_series("ffs")]),
            ],
            title="Figure 4 (top): Sequential Read Performance (MB/sec)",
            xlabel="File size (bytes, log scale)",
            log_x=True,
        )
        write_chart = render_chart(
            [
                ("Raw Write", mb, [self.raw_write / MB] * len(self.sizes)),
                ("FFS + Realloc", mb,
                 [v / MB for v in self.write_series("realloc")]),
                ("FFS", mb, [v / MB for v in self.write_series("ffs")]),
            ],
            title="Figure 4 (bottom): Sequential Write Performance (MB/sec)",
            xlabel="File size (bytes, log scale)",
            log_x=True,
        )
        rows = []
        for s in self.sizes:
            rows.append(
                (
                    f"{s // KB} KB",
                    f"{self.results['ffs'][s].read_throughput.mean / MB:.2f}",
                    f"{self.results['realloc'][s].read_throughput.mean / MB:.2f}",
                    f"{self.results['ffs'][s].write_throughput.mean / MB:.2f}",
                    f"{self.results['realloc'][s].write_throughput.mean / MB:.2f}",
                )
            )
        table = render_table(
            ["File size", "read FFS", "read Realloc", "write FFS", "write Realloc"],
            rows,
            title="\nThroughput (MB/sec); raw read "
            f"{self.raw_read / MB:.2f}, raw write {self.raw_write / MB:.2f}",
        )
        return read_chart + "\n\n" + write_chart + "\n" + table


@lru_cache(maxsize=None)
def run(preset: str = "small", backend: str = DEFAULT_BACKEND) -> Fig4Result:
    """Run the sweep on private copies of both aged file systems."""
    p = get_preset(preset)
    sizes = [s for s in p.bench_file_sizes if s <= p.bench_total_bytes]
    results: Dict[str, Dict[int, SequentialResult]] = {
        policy: {size: aged_sequential(preset, policy, size, backend)
                 for size in sizes}
        for policy in ("ffs", "realloc")
    }
    return Fig4Result(
        sizes=sizes,
        results=results,
        raw_read=raw_read_throughput(p.bench_total_bytes, backend=backend),
        raw_write=raw_write_throughput(p.bench_total_bytes, backend=backend),
    )
