"""Empty vs. aged performance — the claim that motivates the paper.

The introduction cites [Seltzer95]: "UNIX file systems that are more
than two years old perform as much as 15% worse than comparable empty
file systems", and notes that clustering measurements on *empty* file
systems represent best-case behaviour.  This experiment runs the
sequential I/O benchmark on an empty file system and on the aged one,
for both policies, and reports the degradation — realloc's pitch is
precisely that it keeps the aged file system close to its empty-disk
performance.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Dict, List

from repro.analysis.report import render_table
from repro.bench.sequential import SequentialIOBenchmark
from repro.bench.timing import BenchmarkRunner
from repro.experiments.config import aged_fs_copy, get_preset
from repro.ffs.filesystem import FileSystem
from repro.storage import DEFAULT_BACKEND
from repro.units import KB, MB


@dataclass(frozen=True)
class EmptyVsAgedResult:
    """Read throughput on empty vs. aged file systems, per policy."""

    sizes: List[int]
    #: policy -> size -> (empty bytes/s, aged bytes/s)
    throughput: Dict[str, Dict[int, "tuple[float, float]"]]

    def degradation(self, policy: str, size: int) -> float:
        """Fractional read-throughput loss from aging."""
        empty, aged = self.throughput[policy][size]
        return (empty - aged) / empty if empty else 0.0

    def mean_degradation(self, policy: str) -> float:
        """Average degradation across the size sweep."""
        values = [self.degradation(policy, s) for s in self.sizes]
        return sum(values) / len(values) if values else 0.0

    def render(self) -> str:
        """Text table of the study's results."""
        rows = []
        for size in self.sizes:
            row = [f"{size // KB} KB"]
            for policy in ("ffs", "realloc"):
                empty, aged = self.throughput[policy][size]
                row.extend(
                    [
                        f"{empty / MB:.2f}",
                        f"{aged / MB:.2f}",
                        f"{self.degradation(policy, size):+.0%}",
                    ]
                )
            rows.append(tuple(row))
        table = render_table(
            [
                "size",
                "FFS empty", "FFS aged", "loss",
                "realloc empty", "realloc aged", "loss",
            ],
            rows,
            title="Empty vs. aged sequential-read throughput (MB/sec)",
        )
        summary = (
            f"\n  mean aging penalty: FFS "
            f"{self.mean_degradation('ffs'):.0%}, realloc "
            f"{self.mean_degradation('realloc'):.0%} "
            f"([Seltzer95] measured up to 15% on >2-year-old systems)"
        )
        return table + summary


@lru_cache(maxsize=None)
def run(preset: str = "small", backend: str = DEFAULT_BACKEND) -> EmptyVsAgedResult:
    """Benchmark empty and aged file systems under both policies."""
    p = get_preset(preset)
    sizes = [
        s for s in (16 * KB, 56 * KB, 96 * KB, 256 * KB, 1024 * KB)
        if s <= p.bench_total_bytes
    ]
    runner = BenchmarkRunner(p.bench_repetitions)
    bench = partial(
        SequentialIOBenchmark, total_bytes=p.bench_total_bytes, runner=runner,
        backend=backend,
    )
    throughput: Dict[str, Dict[int, "tuple[float, float]"]] = {}
    for policy in ("ffs", "realloc"):
        throughput[policy] = {}
        for size in sizes:
            empty_fs = FileSystem(p.params, policy=policy)
            empty = bench(empty_fs).run(size)
            aged_fs = aged_fs_copy(preset, policy)
            aged = bench(aged_fs).run(size)
            throughput[policy][size] = (
                empty.read_throughput.mean,
                aged.read_throughput.mean,
            )
    return EmptyVsAgedResult(sizes=sizes, throughput=throughput)
