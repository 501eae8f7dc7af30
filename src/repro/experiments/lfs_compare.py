"""Three-way aging comparison: FFS vs. FFS+realloc vs. LFS.

The paper positions realloc as FFS's answer to log-structured file
systems ([Seltzer93], [Seltzer95]); its future work names LFS as the
next system to age.  This experiment does it: the same reconstructed
ten-month workload ages all three file systems, and the aged systems
are compared on

* the daily aggregate layout-score trajectory,
* read throughput over the hot-file set (the Table 2 measurement), and
* the *write tax* each design pays — synchronous metadata and
  fragmentation for FFS, cleaner copies (write amplification) for LFS.

Expected shape, from the logging-vs-clustering literature: LFS keeps
the best read layout for once-written files (everything it writes is
sequential in the log) but pays for it in cleaner bandwidth, while
realloc approaches LFS's layout without any background copying.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain
from typing import Dict, List

from repro.analysis.report import render_chart, render_table
from repro.analysis.timeline import Timeline
from repro.bench.timing import BenchmarkRunner
from repro.disk.model import IOKind
from repro.disk.request import byte_requests, extents_of_blocks
from repro.experiments.config import aged, artifacts, get_preset
from repro.lfs.params import LFSParams
from repro.lfs.replay import age_lfs
from repro.storage import DEFAULT_BACKEND, make_storage
from repro.units import MB


@dataclass(frozen=True)
class LfsCompareResult:
    """Aging outcomes for the three systems."""

    timelines: Dict[str, Timeline]
    hot_read_throughput: Dict[str, float]
    write_amplification: float
    cleanings: int

    def final_scores(self) -> Dict[str, float]:
        """Final aggregate layout score per system."""
        return {name: tl.final_score() for name, tl in self.timelines.items()}

    def render(self) -> str:
        """Chart + summary table of the comparison."""
        chart = render_chart(
            [
                (name, tl.days(), tl.scores())
                for name, tl in self.timelines.items()
            ],
            title="Aggregate layout score over time: FFS vs. realloc vs. LFS",
            xlabel="Time (days)",
            ylabel="Aggregate layout score",
            y_range=(0.0, 1.0),
        )
        rows = []
        for name, tl in self.timelines.items():
            rows.append(
                (
                    name,
                    f"{tl.final_score():.3f}",
                    f"{self.hot_read_throughput[name] / MB:.2f} MB/s",
                    f"{self.write_amplification:.2f}x" if name == "LFS" else "1.00x",
                )
            )
        table = render_table(
            ["system", "final layout", "hot-file read", "write amplification"],
            rows,
            title="\nAged file systems compared",
        )
        note = (
            f"\n  LFS ran its cleaner {self.cleanings} times; its extra "
            f"writes are the price of the layout it keeps."
        )
        return chart + "\n" + table + note


@lru_cache(maxsize=None)
def run(preset: str = "small", backend: str = DEFAULT_BACKEND) -> LfsCompareResult:
    """Age all three systems with the identical workload and compare."""
    p = get_preset(preset)
    workload = artifacts(preset).reconstructed
    runner = BenchmarkRunner(p.bench_repetitions)
    window = 0.1 * p.days

    timelines: Dict[str, Timeline] = {}
    hot_tp: Dict[str, float] = {}

    # The two FFS variants come from the shared cache.
    for name, policy in (("FFS", "ffs"), ("FFS + Realloc", "realloc")):
        result = aged(preset, policy)
        timelines[name] = result.timeline
        hot_tp[name] = _hot_read_throughput(
            result.fs.files_modified_since(_cutoff(result.fs, window)),
            p.params.block_size,
            runner,
            backend,
        )

    lfs_params = LFSParams(size_bytes=p.params.actual_size_bytes)
    lfs_result = age_lfs(workload, params=lfs_params)
    timelines["LFS"] = lfs_result.timeline
    hot_tp["LFS"] = _hot_read_throughput(
        lfs_result.fs.files_modified_since(_cutoff(lfs_result.fs, window)),
        lfs_params.block_size,
        runner,
        backend,
    )
    return LfsCompareResult(
        timelines=timelines,
        hot_read_throughput=hot_tp,
        write_amplification=lfs_result.fs.write_amplification(),
        cleanings=lfs_result.fs.cleanings,
    )


def _cutoff(fs, window: float) -> float:
    files = fs.files()
    if not files:
        return 0.0
    return max(inode.mtime for inode in files) - window


def _hot_read_throughput(
    hot_files, block_size: int, runner, backend: str
) -> float:
    """Read the hot set's data extents and return mean bytes/second.

    The whole set is one request list, built once and served at every
    initial angle.

    File-system-agnostic: any object with ``data_block_list()`` and
    ``size`` participates, which is the point — the three systems are
    priced by the same disk model over their actual layouts.
    """
    hot = sorted(hot_files, key=lambda inode: inode.data_block_list()[:1])
    total = sum(
        len(inode.data_block_list()) * block_size for inode in hot
    )
    if total == 0:
        return 0.0
    device = partial(make_storage, backend=backend)
    probe = device()
    requests = byte_requests(
        chain.from_iterable(
            extents_of_blocks(inode.data_block_list(), block_size)
            for inode in hot
        ),
        block_size,
        probe.geometry.max_transfer_bytes,
        probe.fs_offset,
    )
    return runner.measure_stream(device, IOKind.READ, requests, total).mean
