"""Table 2: performance of recently modified ("hot") files.

The benchmark of Section 5.2 on both aged file systems: all files
modified during the last month of the aging workload are read (sorted by
directory) and then overwritten in place.  The paper's numbers:

==================  =======  =============
                    FFS      FFS + Realloc
==================  =======  =============
Layout score        0.80     0.96
Read throughput     1.65     2.18 MB/sec   (+32%)
Write throughput    1.04     1.25 MB/sec   (+20%)
==================  =======  =============

The hot set was 10.5% of the files (929 of 8774) and 19% of the
allocated space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.analysis.report import render_table
from repro.bench.hotfiles import HotFileBenchmark, HotFileResult
from repro.bench.timing import BenchmarkRunner
from repro.experiments.config import aged_fs_copy, get_preset
from repro.storage import DEFAULT_BACKEND
from repro.units import MB


@dataclass(frozen=True)
class Table2Result:
    """Hot-file results per policy."""

    results: Dict[str, HotFileResult]

    @property
    def read_improvement(self) -> float:
        """Relative read-throughput gain of realloc (paper: 32%)."""
        ffs = self.results["ffs"].read_throughput.mean
        re = self.results["realloc"].read_throughput.mean
        return (re - ffs) / ffs if ffs else 0.0

    @property
    def write_improvement(self) -> float:
        """Relative write-throughput gain of realloc (paper: 20%)."""
        ffs = self.results["ffs"].write_throughput.mean
        re = self.results["realloc"].write_throughput.mean
        return (re - ffs) / ffs if ffs else 0.0

    def render(self) -> str:
        """Text rendering of Table 2."""
        ffs, re = self.results["ffs"], self.results["realloc"]
        rows = [
            ("Layout Score", f"{ffs.layout_score:.2f}", f"{re.layout_score:.2f}"),
            (
                "Read Throughput",
                f"{ffs.read_throughput.mean / MB:.2f} MB/sec",
                f"{re.read_throughput.mean / MB:.2f} MB/sec",
            ),
            (
                "Write Throughput",
                f"{ffs.write_throughput.mean / MB:.2f} MB/sec",
                f"{re.write_throughput.mean / MB:.2f} MB/sec",
            ),
        ]
        table = render_table(
            ["", "FFS", "FFS + Realloc"], rows,
            title="Table 2: Performance of Recently Modified Files",
        )
        summary = (
            f"\n  hot set: {ffs.n_hot_files} of {ffs.n_total_files} files "
            f"({ffs.fraction_of_files:.1%}, paper 10.5%), "
            f"{ffs.fraction_of_space:.0%} of space (paper 19%)"
            f"\n  improvements: read {self.read_improvement:+.0%} "
            f"(paper +32%), write {self.write_improvement:+.0%} (paper +20%)"
        )
        return table + summary


def run(preset: str = "small", backend: str = DEFAULT_BACKEND) -> Table2Result:
    """Run the hot-file benchmark on both aged file systems."""
    p = get_preset(preset)
    runner = BenchmarkRunner(p.bench_repetitions)
    # The paper's hot window is the last month of ten — 10% of the
    # simulated duration — so scaled presets scale the window with it.
    window = 0.1 * p.days
    results = {
        policy: HotFileBenchmark(
            aged_fs_copy(preset, policy), window_days=window, runner=runner,
            backend=backend,
        ).run()
        for policy in ("ffs", "realloc")
    }
    return Table2Result(results=results)
