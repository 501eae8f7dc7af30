"""Figure 3: layout score as a function of file size on the aged FSes.

Shape targets from Section 4:

* realloc beats FFS at every size;
* realloc is near-optimal below the cluster size (56 KB);
* under realloc, *two-block files* score lower than slightly larger
  files (the quirk: reallocation is not invoked until the second block
  is filled);
* both systems dip once files pass twelve blocks (96 KB): the thirteenth
  block sits behind an indirect block in a different cylinder group, a
  mandatory non-optimal block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.layout import (
    default_size_bins,
    layout_by_size_bins,
    layout_by_block_count,
)
from repro.analysis.report import render_chart, render_csv, render_table
from repro.experiments.config import aged, get_preset
from repro.storage import DEFAULT_BACKEND
from repro.units import KB


@dataclass(frozen=True)
class Fig3Result:
    """Layout score per size bin for both policies."""

    bins: List[int]
    ffs: Dict[int, Optional[float]]
    realloc: Dict[int, Optional[float]]
    #: Finer-grained score by chunk count, where the 2-block quirk lives.
    ffs_by_chunks: Dict[int, Optional[float]]
    realloc_by_chunks: Dict[int, Optional[float]]

    def csv_text(self) -> str:
        """CSV of the size-bin series (size_bytes, ffs, realloc)."""
        rows = [(b, self.ffs[b], self.realloc[b]) for b in self.bins]
        return render_csv(["size_bytes", "ffs", "realloc"], rows)

    def render(self) -> str:
        """ASCII version of Figure 3 plus the per-chunk-count table."""
        chart = render_chart(
            [
                ("FFS + Realloc", self.bins,
                 [self.realloc[b] for b in self.bins]),
                ("FFS", self.bins, [self.ffs[b] for b in self.bins]),
            ],
            title="Figure 3: Layout Score as a Function of File Size (aged FS)",
            xlabel="File size (bytes, log scale)",
            ylabel="Layout score",
            log_x=True,
            y_range=(0.0, 1.0),
        )
        rows = []
        for b in self.bins:
            rows.append(
                (
                    f"{b // KB} KB",
                    _fmt(self.ffs[b]),
                    _fmt(self.realloc[b]),
                )
            )
        table = render_table(
            ["File size", "FFS", "FFS + Realloc"], rows,
            title="\nLayout score by size bin",
        )
        return chart + "\n" + table


def _fmt(value: Optional[float]) -> str:
    return f"{value:.3f}" if value is not None else "--"


def run(preset: str = "small", backend: str = DEFAULT_BACKEND) -> Fig3Result:
    """Score the aged file populations by size (``backend`` is unused)."""
    p = get_preset(preset)
    largest = max(
        (inode.size for inode in aged(preset, "ffs").fs.files()),
        default=16 * KB,
    )
    bins = default_size_bins(largest=max(16 * KB, largest))
    ffs_files = aged(preset, "ffs").fs.files()
    realloc_files = aged(preset, "realloc").fs.files()
    return Fig3Result(
        bins=bins,
        ffs=layout_by_size_bins(ffs_files, bins),
        realloc=layout_by_size_bins(realloc_files, bins),
        ffs_by_chunks=layout_by_block_count(ffs_files),
        realloc_by_chunks=layout_by_block_count(realloc_files),
    )
