"""Figure 6: layout score of the hot files as a function of file size.

Plots the hot-file set's layout by size for both policies, alongside the
sequential-benchmark curves of Figure 5 for comparison.  The paper's
observations: under the original FFS the realistically created hot files
lay out *worse* than the benchmark files, but under realloc the hot
files match the benchmark files almost exactly — reallocation reaches
near-optimal layout however the files were created.  Two-block files are
again the worst case under realloc.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.layout import default_size_bins, layout_by_size_bins
from repro.analysis.report import render_chart
from repro.bench.hotfiles import HotFileBenchmark
from repro.experiments import fig5
from repro.experiments.config import aged, get_preset
from repro.storage import DEFAULT_BACKEND
from repro.units import KB


@dataclass(frozen=True)
class Fig6Result:
    """Hot-file layout by size, plus the Figure 5 series for contrast."""

    bins: List[int]
    hot_ffs: Dict[int, Optional[float]]
    hot_realloc: Dict[int, Optional[float]]
    seq: "fig5.Fig5Result"

    def render(self) -> str:
        """ASCII version of Figure 6."""
        chart = render_chart(
            [
                ("Realloc (Sequential)", self.seq.sizes,
                 [self.seq.realloc[s] for s in self.seq.sizes]),
                ("Realloc (Hot Files)", self.bins,
                 [self.hot_realloc[b] for b in self.bins]),
                ("FFS (Sequential)", self.seq.sizes,
                 [self.seq.ffs[s] for s in self.seq.sizes]),
                ("FFS (Hot Files)", self.bins,
                 [self.hot_ffs[b] for b in self.bins]),
            ],
            title="Figure 6: Layout Score of Hot Files",
            xlabel="File size (bytes, log scale)",
            ylabel="Layout score",
            log_x=True,
            y_range=(0.0, 1.0),
        )
        return chart


def run(preset: str = "small", backend: str = DEFAULT_BACKEND) -> Fig6Result:
    """Score the hot sets by size and attach the Figure 5 curves."""
    p = get_preset(preset)
    hot_sets = {}
    largest = 16 * KB
    window = 0.1 * p.days  # the paper's "last month of ten"
    for policy in ("ffs", "realloc"):
        bench = HotFileBenchmark(aged(preset, policy).fs, window_days=window)
        hot = bench.hot_files()
        hot_sets[policy] = hot
        largest = max([largest] + [inode.size for inode in hot])
    bins = default_size_bins(largest=largest)
    return Fig6Result(
        bins=bins,
        hot_ffs=layout_by_size_bins(hot_sets["ffs"], bins),
        hot_realloc=layout_by_size_bins(hot_sets["realloc"], bins),
        seq=fig5.run(preset, backend),
    )
