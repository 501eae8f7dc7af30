"""Ablations of the design choices DESIGN.md calls out.

Each ablation re-ages a file system with one knob changed and reports
the metric that knob is supposed to move.  A knob at its stock value
is the suite's own aging, so a warm cache serves it:

* ``maxcontig`` sweep — how the cluster-size bound trades off final
  layout score (Section 2: the bound is normally the maximum transfer
  size of the disk system);
* cluster-fit strategy — the kernel's address-ordered first fit versus
  best fit, measured by final layout score *and* how much clusterable
  free space survives aging;
* realloc trigger — the stock "second block filled" gate versus an
  eager variant, measured by the layout score of two-chunk files (the
  Figure 3 quirk);
* indirect-block group switch — footnote 1 on versus off, measured by
  the layout score of files just past twelve blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.analysis.freespace import free_space_stats
from repro.analysis.layout import layout_by_block_count
from repro.analysis.report import render_table
from repro.experiments.config import get_preset, preset_aging
from repro.parallel import age_many


@dataclass(frozen=True)
class MaxcontigResult:
    """Realloc outcomes per ``maxcontig`` value.

    The layout *score* is largely insensitive to the bound (any break
    counts once); what the bound actually controls is how long the
    extents are — and extent length is what turns into transfer size
    and throughput on the disk.
    """

    scores: Dict[int, float]
    mean_extent_blocks: Dict[int, float]

    def render(self) -> str:
        """Text table of the study's results."""
        rows = [
            (str(v), f"{self.scores[v]:.3f}", f"{self.mean_extent_blocks[v]:.2f}")
            for v in sorted(self.scores)
        ]
        return render_table(
            ["maxcontig (blocks)", "final layout score", "mean extent (blocks)"],
            rows,
            title="Ablation: cluster-size bound (realloc policy)",
        )


def _mean_extent_blocks(fs) -> float:
    """Mean physical extent length over multi-chunk files, in blocks."""
    from repro.disk.request import extents_of_blocks

    total_blocks = total_extents = 0
    for inode in fs.files():
        chunks = inode.data_block_list()
        if len(chunks) < 2:
            continue
        extents = extents_of_blocks(chunks, fs.params.block_size)
        total_blocks += len(chunks)
        total_extents += len(extents)
    return total_blocks / total_extents if total_extents else 0.0


def run_maxcontig_sweep(
    preset: str = "small", values: Tuple[int, ...] = (2, 4, 7, 12, 16)
) -> MaxcontigResult:
    """Age under realloc for each cluster-size bound."""
    scores: Dict[int, float] = {}
    extents: Dict[int, float] = {}
    specs = [preset_aging(preset, "realloc", maxcontig=v) for v in values]
    for value, result in zip(values, age_many(specs)):
        scores[value] = result.timeline.final_score()
        extents[value] = _mean_extent_blocks(result.fs)
    return MaxcontigResult(scores=scores, mean_extent_blocks=extents)


@dataclass(frozen=True)
class ClusterFitResult:
    """First-fit vs. best-fit relocation targets."""

    final_scores: Dict[str, float]
    clusterable: Dict[str, float]

    def render(self) -> str:
        """Text table of the study's results."""
        rows = [
            (
                fit,
                f"{self.final_scores[fit]:.3f}",
                f"{self.clusterable[fit]:.0%}",
            )
            for fit in sorted(self.final_scores)
        ]
        return render_table(
            ["cluster fit", "final layout score", "clusterable free space"],
            rows,
            title="Ablation: relocation target choice (realloc policy)",
        )


def run_cluster_fit_ablation(preset: str = "small") -> ClusterFitResult:
    """Compare the kernel's first fit against best fit."""
    final_scores: Dict[str, float] = {}
    clusterable: Dict[str, float] = {}
    fits = ("firstfit", "bestfit")
    specs = [preset_aging(preset, "realloc", cluster_fit=fit) for fit in fits]
    for fit, result in zip(fits, age_many(specs)):
        final_scores[fit] = result.timeline.final_score()
        clusterable[fit] = free_space_stats(result.fs).clusterable_fraction
    return ClusterFitResult(final_scores=final_scores, clusterable=clusterable)


@dataclass(frozen=True)
class TriggerResult:
    """Stock vs. eager realloc trigger, by small-file layout."""

    two_chunk: Dict[str, Optional[float]]
    final_scores: Dict[str, float]

    def render(self) -> str:
        """Text table of the study's results."""
        rows = [
            (
                name,
                _fmt(self.two_chunk[name]),
                f"{self.final_scores[name]:.3f}",
            )
            for name in sorted(self.two_chunk)
        ]
        return render_table(
            ["trigger", "two-chunk layout score", "final aggregate"],
            rows,
            title="Ablation: realloc trigger point (the two-block quirk)",
        )


def run_trigger_ablation(preset: str = "small") -> TriggerResult:
    """Measure what the second-block trigger gate costs two-block files."""
    two_chunk: Dict[str, Optional[float]] = {}
    final_scores: Dict[str, float] = {}
    policies = ("realloc", "realloc-eager")
    specs = [preset_aging(preset, policy) for policy in policies]
    for policy, result in zip(policies, age_many(specs)):
        by_chunks = layout_by_block_count(result.fs.files())
        two_chunk[policy] = by_chunks.get(2)
        final_scores[policy] = result.timeline.final_score()
    return TriggerResult(two_chunk=two_chunk, final_scores=final_scores)


@dataclass(frozen=True)
class IndirectResult:
    """Footnote-1 group switch on vs. off.

    The layout score barely shows the switch (a one-block break either
    way); the real cost is the inter-group *seek* — so the metric is the
    104 KB read-throughput dip of Figure 4: throughput at 104 KB as a
    fraction of throughput at 96 KB.  With the switch ablated away the
    dip should largely disappear.
    """

    dip_ratio: Dict[str, float]
    read_104k: Dict[str, float]
    final_scores: Dict[str, float]

    def render(self) -> str:
        """Text table of the study's results."""
        from repro.units import MB

        rows = [
            (
                name,
                f"{self.read_104k[name] / MB:.2f} MB/s",
                f"{self.dip_ratio[name]:.2f}",
                f"{self.final_scores[name]:.3f}",
            )
            for name in sorted(self.dip_ratio)
        ]
        return render_table(
            [
                "indirect placement",
                "104 KB read",
                "104/96 KB ratio",
                "final aggregate",
            ],
            rows,
            title="Ablation: indirect-block cylinder-group switch",
        )


def run_indirect_ablation(preset: str = "small") -> IndirectResult:
    """Measure the mandatory 13th-block seek via the 104 KB dip."""
    import copy

    from repro.bench.sequential import SequentialIOBenchmark
    from repro.bench.timing import BenchmarkRunner
    from repro.units import KB

    p = get_preset(preset)
    dip_ratio: Dict[str, float] = {}
    read_104k: Dict[str, float] = {}
    final_scores: Dict[str, float] = {}
    labels = ("switch (stock)", "stay home")
    specs = [
        preset_aging(preset, "realloc", indirect_switches_cg=switch)
        for switch in (True, False)
    ]
    for label, result in zip(labels, age_many(specs)):
        final_scores[label] = result.timeline.final_score()
        throughput = {}
        for size in (96 * KB, 104 * KB):
            fs = copy.deepcopy(result.fs)
            bench = SequentialIOBenchmark(
                fs,
                total_bytes=min(p.bench_total_bytes, 4 * 1024 * KB),
                runner=BenchmarkRunner(3),
            )
            throughput[size] = bench.run(size).read_throughput.mean
        read_104k[label] = throughput[104 * KB]
        dip_ratio[label] = throughput[104 * KB] / throughput[96 * KB]
    return IndirectResult(
        dip_ratio=dip_ratio, read_104k=read_104k, final_scores=final_scores
    )


def _fmt(value: Optional[float]) -> str:
    return f"{value:.3f}" if value is not None else "--"


@dataclass(frozen=True)
class FallbackResult:
    """Original vs. run-aware fallback vs. full reallocation.

    Separates realloc's benefit into "place better initially" and
    "move blocks afterwards".
    """

    final_scores: Dict[str, float]

    def render(self) -> str:
        """Text table of the study's results."""
        rows = [
            (name, f"{self.final_scores[name]:.3f}")
            for name in ("ffs", "ffs-smart", "realloc")
        ]
        return render_table(
            ["policy", "final layout score"], rows,
            title="Ablation: run-aware fallback vs. reallocation",
        )


def run_fallback_ablation(preset: str = "small") -> FallbackResult:
    """Age under the original, smart-fallback, and realloc policies."""
    policies = ("ffs", "ffs-smart", "realloc")
    results = age_many([preset_aging(preset, p) for p in policies])
    return FallbackResult(final_scores={
        p: r.timeline.final_score() for p, r in zip(policies, results)
    })
