"""Policy x backend: does rotational placement still matter on flash?

The paper's whole evaluation prices layouts on a rotating disk, where an
aged, fragmented layout costs seeks and lost rotations.  A flash device
with a page-mapped FTL (:mod:`repro.ssd`) has no moving parts: logical
adjacency buys only shorter per-request overheads, and the device adds a
cost dimension the disk never had — garbage collection, visible as
write amplification and erase wear.  This experiment reruns the
empty-vs-aged question on both backends and then churns the aged
layouts on flash:

* **aging penalty, per backend** — the sequential-read benchmark on an
  empty and an aged file system, for both policies, on ``disk`` and on
  ``ssd``.  Expected shape: the double-digit aging penalty that
  motivates the paper collapses to near zero on flash, because the FTL
  decouples logical placement from physical placement.
* **rewrite churn on flash** — the aged layouts' live files are flushed
  to a right-sized SSD in elevator (disk-address) order, then rewritten
  in rotating cohorts until garbage collection reaches steady state.
  Flash co-location mirrors disk adjacency under elevator-ordered
  writeback, so FFS's fragmented layout spreads each file's
  invalidations thinly across many erase blocks (forcing cold-page
  migration) while realloc's clustered layout concentrates them —
  rotational placement stops paying for reads exactly where clustered
  placement starts paying for erases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Dict, List, Tuple

from repro.analysis.report import render_table
from repro.bench.iomodel import FileIOPricer
from repro.bench.sequential import SequentialIOBenchmark
from repro.bench.timing import BenchmarkRunner
from repro.disk.model import IOKind
from repro.experiments.config import aged_fs_copy, get_preset
from repro.ffs.filesystem import FileSystem
from repro.ssd import SSDGeometry, SSDModel
from repro.storage import BACKENDS, DEFAULT_BACKEND
from repro.units import KB, MB

#: The file population is dealt into this many cohorts; each churn
#: round rewrites two *adjacent* cohorts, so every flush batch mixes
#: pages that die one round later with pages that die three rounds
#: later.  Whether those lifetimes end up sharing erase blocks is
#: exactly what the disk layout decides under elevator-order writeback.
CHURN_COHORTS = 4

#: Hard ceiling on churn rounds (the round count is derived from device
#: occupancy; the cap only guards against a pathological preset).
MAX_CHURN_ROUNDS = 64


@dataclass(frozen=True)
class ChurnOutcome:
    """Flash-level cost of rewriting one policy's aged layout."""

    host_bytes: int
    write_amplification: float
    flash_erases: int
    gc_moved_pages: int
    max_erase_count: int
    rounds: int


@dataclass(frozen=True)
class FlashResult:
    """Aging penalties per backend plus flash churn costs per policy."""

    sizes: List[int]
    #: (policy, backend) -> size -> (empty bytes/s, aged bytes/s)
    throughput: Dict[Tuple[str, str], Dict[int, Tuple[float, float]]]
    #: policy -> churn outcome on the right-sized SSD
    churn: Dict[str, ChurnOutcome]

    def degradation(self, policy: str, backend: str, size: int) -> float:
        """Fractional sequential-read loss from aging."""
        empty, aged = self.throughput[(policy, backend)][size]
        return (empty - aged) / empty if empty else 0.0

    def mean_degradation(self, policy: str, backend: str) -> float:
        """Average degradation across the size sweep."""
        values = [self.degradation(policy, backend, s) for s in self.sizes]
        return sum(values) / len(values) if values else 0.0

    def render(self) -> str:
        """Text tables of both studies."""
        rows = []
        for size in self.sizes:
            row = [f"{size // KB} KB"]
            for policy in ("ffs", "realloc"):
                for backend in BACKENDS:
                    row.append(
                        f"{self.degradation(policy, backend, size):+.0%}"
                    )
            rows.append(tuple(row))
        penalty = render_table(
            [
                "size",
                "FFS disk", "FFS ssd",
                "realloc disk", "realloc ssd",
            ],
            rows,
            title="Aging penalty by backend (sequential-read loss)",
        )
        summary = (
            "\n  mean aging penalty: "
            + ", ".join(
                f"{policy}/{backend} "
                f"{self.mean_degradation(policy, backend):.0%}"
                for policy in ("ffs", "realloc")
                for backend in BACKENDS
            )
        )
        churn_rows = []
        for policy in ("ffs", "realloc"):
            o = self.churn[policy]
            churn_rows.append(
                (
                    policy,
                    f"{o.host_bytes / MB:.1f} MB",
                    f"{o.write_amplification:.3f}x",
                    str(o.flash_erases),
                    str(o.gc_moved_pages),
                    str(o.max_erase_count),
                )
            )
        churn = render_table(
            [
                "policy", "host writes", "write amp",
                "erases", "pages migrated", "max erase count",
            ],
            churn_rows,
            title="\nRewrite churn on flash (aged layouts, elevator-order writeback)",
        )
        note = (
            "\n  the FTL hides placement from reads; what the layout still"
            "\n  decides is how invalidations land on erase blocks."
        )
        return penalty + summary + "\n" + churn + note


def _churn(preset: str, policy: str) -> ChurnOutcome:
    """Flush an aged layout to a right-sized SSD, then rewrite cohorts.

    Writes reach the device in disk-address order — elevator-scheduled
    writeback — so pages co-located on flash are pages adjacent on the
    disk layout.  Rounds continue until cumulative churn is twice the
    device's physical capacity, deep into garbage-collection steady
    state, with every file rewritten at least once.
    """
    p = get_preset(preset)
    fs = aged_fs_copy(preset, policy)
    block_size = p.params.block_size
    ssd = SSDModel(SSDGeometry.for_bytes(p.params.actual_size_bytes))
    pricer = FileIOPricer(fs, ssd)
    files = sorted(fs.files(), key=lambda inode: inode.ino)
    extents = {inode.ino: pricer.file_extents(inode) for inode in files}

    fill = sorted(
        (e for inode in files for e in extents[inode.ino]),
        key=lambda e: e.start,
    )
    ssd.transfer_extents(IOKind.WRITE, fill, block_size)

    fill_pages = ssd.stats.host_pages_written
    per_round = max(1, 2 * fill_pages // CHURN_COHORTS)
    physical = ssd.geometry.physical_pages
    rounds = min(
        MAX_CHURN_ROUNDS,
        max(2 * CHURN_COHORTS, math.ceil(2 * physical / per_round)),
    )
    for rnd in range(rounds):
        live = {rnd % CHURN_COHORTS, (rnd + 1) % CHURN_COHORTS}
        cohort = [
            inode for index, inode in enumerate(files)
            if index % CHURN_COHORTS in live
        ]
        batch = sorted(
            (e for inode in cohort for e in extents[inode.ino]),
            key=lambda e: e.start,
        )
        ssd.transfer_extents(IOKind.WRITE, batch, block_size)

    stats = ssd.stats
    return ChurnOutcome(
        host_bytes=stats.bytes_written,
        write_amplification=stats.write_amplification(),
        flash_erases=stats.flash_erases,
        gc_moved_pages=stats.gc_moved_pages,
        max_erase_count=max(ssd.ftl.erase_counts),
        rounds=rounds,
    )


@lru_cache(maxsize=None)
def run(preset: str = "small", backend: str = DEFAULT_BACKEND) -> FlashResult:
    """Benchmark both policies on both backends, then churn on flash.

    The study spans every backend itself, so ``backend`` is unused.
    """
    p = get_preset(preset)
    sizes = [
        s for s in (16 * KB, 56 * KB, 96 * KB, 256 * KB, 1024 * KB)
        if s <= p.bench_total_bytes
    ]
    runner = BenchmarkRunner(p.bench_repetitions)
    throughput: Dict[Tuple[str, str], Dict[int, Tuple[float, float]]] = {}
    for policy in ("ffs", "realloc"):
        for device in BACKENDS:
            bench = partial(
                SequentialIOBenchmark, total_bytes=p.bench_total_bytes,
                runner=runner, backend=device,
            )
            cell: Dict[int, Tuple[float, float]] = {}
            for size in sizes:
                empty_fs = FileSystem(p.params, policy=policy)
                empty = bench(empty_fs).run(size)
                aged = bench(aged_fs_copy(preset, policy)).run(size)
                cell[size] = (
                    empty.read_throughput.mean,
                    aged.read_throughput.mean,
                )
            throughput[(policy, device)] = cell
    churn = {policy: _churn(preset, policy) for policy in ("ffs", "realloc")}
    return FlashResult(sizes=sizes, throughput=throughput, churn=churn)
