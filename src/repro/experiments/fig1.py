"""Figure 1: aggregate layout score over time — real vs. simulated.

The paper validates its aging methodology by comparing the artificially
aged file system against the original: the simulated system ends *less*
fragmented (0.77 vs. 0.68) because the reconstructed workload misses
activity the snapshots could not capture, but the two curves share their
contours.

In the reproduction, "Real" is the ground-truth workload (with the
short-lived churn and chunked interleaved writes the snapshots cannot
see) replayed under the original policy, and "Simulated" is the
snapshot-reconstructed workload replayed the same way.  The same two
qualitative facts must hold: the simulated curve sits at or above the
real one, and both decline over the simulated period.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import render_chart, render_csv
from repro.analysis.timeline import Timeline
from repro.experiments.config import aged, aged_real
from repro.storage import DEFAULT_BACKEND


@dataclass(frozen=True)
class Fig1Result:
    """The two daily layout-score series."""

    real: Timeline
    simulated: Timeline

    @property
    def final_gap(self) -> float:
        """Simulated minus real final score (paper: 0.77 - 0.68 = +0.09)."""
        return self.simulated.final_score() - self.real.final_score()

    def csv_text(self) -> str:
        """CSV of the two series (day, simulated, real)."""
        real_by_day = {s.day: s.layout_score for s in self.real.samples}
        rows = [
            (s.day, s.layout_score, real_by_day.get(s.day))
            for s in self.simulated.samples
        ]
        return render_csv(["day", "simulated", "real"], rows)

    def render(self) -> str:
        """ASCII version of Figure 1."""
        chart = render_chart(
            [
                ("Simulated", self.simulated.days(), self.simulated.scores()),
                ("Real", self.real.days(), self.real.scores()),
            ],
            title="Figure 1: Aggregate Layout Score Over Time — Real vs. Simulated",
            xlabel="Time (days)",
            ylabel="Aggregate layout score",
            y_range=(0.0, 1.0),
        )
        summary = (
            f"\n  final scores: simulated={self.simulated.final_score():.3f} "
            f"real={self.real.final_score():.3f} (paper: 0.77 vs 0.68)"
        )
        return chart + summary


def run(preset: str = "small", backend: str = DEFAULT_BACKEND) -> Fig1Result:
    """Build both curves for ``preset`` (layout only: ``backend`` is unused)."""
    return Fig1Result(
        real=aged_real(preset).timeline,
        simulated=aged(preset, "ffs").timeline,
    )
