"""Figure 2: aggregate layout score over time — FFS vs. FFS+realloc.

The paper's central result: two file systems aged with the identical
workload, differing only in allocation policy.  The realloc system stays
less fragmented for the whole simulation; the gap *grows* over time,
from 0.026 after the first day (0.950 vs 0.924) to 0.133 at the end
(0.899 vs 0.766) — i.e. realloc leaves only 10.1% of blocks non-optimal
versus 23.4%, a 56.8% reduction in fragmentation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import render_chart, render_csv
from repro.analysis.timeline import Timeline
from repro.experiments.config import aged
from repro.storage import DEFAULT_BACKEND


@dataclass(frozen=True)
class Fig2Result:
    """Daily layout scores under the two policies."""

    ffs: Timeline
    realloc: Timeline

    @property
    def first_day_gap(self) -> float:
        """Realloc minus FFS on day one (paper: +0.026)."""
        return self.realloc.first_day_score() - self.ffs.first_day_score()

    @property
    def final_gap(self) -> float:
        """Realloc minus FFS at the end (paper: +0.133)."""
        return self.realloc.final_score() - self.ffs.final_score()

    @property
    def fragmentation_improvement(self) -> float:
        """Relative reduction in non-optimal blocks (paper: 56.8%)."""
        return self.realloc.fragmentation_improvement_over(self.ffs)

    def csv_text(self) -> str:
        """CSV of the two series (day, ffs, realloc)."""
        realloc_by_day = {s.day: s.layout_score for s in self.realloc.samples}
        rows = [
            (s.day, s.layout_score, realloc_by_day.get(s.day))
            for s in self.ffs.samples
        ]
        return render_csv(["day", "ffs", "realloc"], rows)

    def render(self) -> str:
        """ASCII version of Figure 2."""
        chart = render_chart(
            [
                ("FFS + Realloc", self.realloc.days(), self.realloc.scores()),
                ("FFS", self.ffs.days(), self.ffs.scores()),
            ],
            title="Figure 2: Aggregate Layout Score Over Time — FFS vs. realloc",
            xlabel="Time (days)",
            ylabel="Aggregate layout score",
            y_range=(0.0, 1.0),
        )
        summary = (
            f"\n  final: realloc={self.realloc.final_score():.3f} "
            f"ffs={self.ffs.final_score():.3f} "
            f"gap={self.final_gap:+.3f} (paper: 0.899 vs 0.766, +0.133)"
            f"\n  fragmentation improvement: "
            f"{self.fragmentation_improvement:.1%} (paper: 56.8%)"
        )
        return chart + summary


def run(preset: str = "small", backend: str = DEFAULT_BACKEND) -> Fig2Result:
    """Age under both policies and collect the curves (``backend`` is unused)."""
    return Fig2Result(
        ffs=aged(preset, "ffs").timeline,
        realloc=aged(preset, "realloc").timeline,
    )
