"""Free-space fragmentation statistics.

The paper's motivation rests on an observation from the authors' earlier
study [Smith94]: aged UNIX file systems still contain *many large
clusters of free space* — fragmentation of files is an allocator failure,
not a shortage of free clusters.  These helpers quantify that: the
distribution of free-run lengths, how much free space sits in runs at
least one cluster long, and the largest run per cylinder group.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.ffs.filesystem import FileSystem


@dataclass(frozen=True)
class FreeSpaceStats:
    """Summary of a file system's free-space structure."""

    free_blocks: int
    free_frags: int
    n_runs: int
    largest_run: int
    mean_run: float
    #: Fraction of free blocks sitting in runs of at least ``maxcontig``
    #: blocks — the space the realloc policy can actually exploit.
    clusterable_fraction: float

    def to_dict(self) -> Dict[str, float]:
        """Plain-dict form for the JSON export layer (``freespace --json``)."""
        return dataclasses.asdict(self)


def free_cluster_histogram(fs: FileSystem) -> Dict[int, int]:
    """Histogram of free-run lengths across all cylinder groups.

    Keys are run lengths in blocks, values are the number of runs of that
    exact length.
    """
    histogram: Dict[int, int] = {}
    for cg in fs.sb.cgs:
        for _start, length in cg.bitmap.block_runs():
            histogram[length] = histogram.get(length, 0) + 1
    return dict(sorted(histogram.items()))


def free_runs_per_cg(fs: FileSystem) -> List[List[int]]:
    """Each cylinder group's free-run lengths in blocks, by group index."""
    return [
        [length for _start, length in cg.bitmap.block_runs()]
        for cg in fs.sb.cgs
    ]


def free_space_stats(
    fs: FileSystem, runs: Optional[List[List[int]]] = None
) -> FreeSpaceStats:
    """Compute :class:`FreeSpaceStats` for ``fs``, from ``runs`` (its
    :func:`free_runs_per_cg`) when the caller already has them."""
    if runs is None:
        runs = free_runs_per_cg(fs)
    lengths = [length for group in runs for length in group]
    free_blocks = sum(lengths)
    maxcontig = fs.params.maxcontig
    clusterable = sum(length for length in lengths if length >= maxcontig)
    return FreeSpaceStats(
        free_blocks=free_blocks,
        free_frags=fs.sb.free_frags,
        n_runs=len(lengths),
        largest_run=max(lengths) if lengths else 0,
        mean_run=free_blocks / len(lengths) if lengths else 0.0,
        clusterable_fraction=clusterable / free_blocks if free_blocks else 0.0,
    )


def largest_run_per_cg(fs: FileSystem) -> List[int]:
    """The longest free run in each cylinder group, by group index."""
    return [cg.max_free_run() for cg in fs.sb.cgs]


def cg_health(fs: FileSystem) -> Dict[str, object]:
    """Free-space fragmentation and per-group occupancy: what a replay's
    ``day_sample`` event adds to the timeline's sample.

    It walks every group's free runs, so the replay computes it only
    when an event log is active.
    """
    params = fs.params
    runs = free_runs_per_cg(fs)
    stats = free_space_stats(fs, runs)
    frags_per_cg = params.blocks_per_cg * params.frags_per_block
    per_cg = [
        round(1.0 - cg.free_frags / frags_per_cg, 4) for cg in fs.sb.cgs
    ]
    occupancy = sorted(per_cg)
    n = len(occupancy)
    deciles = [
        round(occupancy[min(n - 1, round(i * (n - 1) / 10))], 4)
        for i in range(11)
    ]
    # Per-CG free-space fragmentation: how little of a group's free
    # space its largest run covers (0 = one contiguous run, →1 =
    # shattered).  A fully occupied group has nothing to fragment.
    frag = [round(1.0 - max(r) / sum(r), 4) if r else 0.0 for r in runs]
    return {
        "free_runs": stats.n_runs,
        "largest_free_run": stats.largest_run,
        "clusterable_fraction": round(stats.clusterable_fraction, 4),
        "cg_occupancy_deciles": deciles,
        # Unsorted per-group vectors, in CG order: the columns of
        # the report's occupancy/fragmentation heatmaps.
        "cg_occupancy": per_cg,
        "cg_frag": frag,
    }
