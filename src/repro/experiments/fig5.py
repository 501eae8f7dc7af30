"""Figure 5: layout of the files created by the sequential benchmark.

For every size point of Figure 4, the average layout score of the files
the benchmark itself created on the aged file system.  Shape targets
from the paper: realloc produces better layout at all sizes, and perfect
layout (score 1.0) for files up to the 56 KB cluster size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional

from repro.analysis.report import render_chart, render_csv, render_table
from repro.experiments.config import get_preset
from repro.experiments import fig4
from repro.storage import DEFAULT_BACKEND
from repro.units import KB


@dataclass(frozen=True)
class Fig5Result:
    """Per-size layout score of the benchmark-created files."""

    sizes: List[int]
    ffs: Dict[int, Optional[float]]
    realloc: Dict[int, Optional[float]]

    def csv_text(self) -> str:
        """CSV of the layout-score series (size_bytes, ffs, realloc)."""
        rows = [(s, self.ffs[s], self.realloc[s]) for s in self.sizes]
        return render_csv(["size_bytes", "ffs", "realloc"], rows)

    def render(self) -> str:
        """ASCII version of Figure 5."""
        chart = render_chart(
            [
                ("FFS + Realloc", self.sizes,
                 [self.realloc[s] for s in self.sizes]),
                ("FFS", self.sizes, [self.ffs[s] for s in self.sizes]),
            ],
            title="Figure 5: File Fragmentation During Sequential I/O Benchmark",
            xlabel="File size (bytes, log scale)",
            ylabel="Layout score",
            log_x=True,
            y_range=(0.0, 1.0),
        )
        rows = [
            (f"{s // KB} KB", _fmt(self.ffs[s]), _fmt(self.realloc[s]))
            for s in self.sizes
        ]
        return chart + "\n" + render_table(
            ["File size", "FFS", "FFS + Realloc"], rows,
            title="\nLayout score of benchmark files",
        )


def _fmt(value: Optional[float]) -> str:
    return f"{value:.3f}" if value is not None else "--"


@lru_cache(maxsize=None)
def run(preset: str = "small", backend: str = DEFAULT_BACKEND) -> Fig5Result:
    """Collect the layout scores from the Figure 4 run (shared work)."""
    f4 = fig4.run(preset, backend)
    return Fig5Result(
        sizes=f4.sizes,
        ffs={s: f4.results["ffs"][s].layout_score for s in f4.sizes},
        realloc={s: f4.results["realloc"][s].layout_score for s in f4.sizes},
    )
