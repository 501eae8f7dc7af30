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
from typing import Dict, List

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


def free_space_stats(fs: FileSystem) -> FreeSpaceStats:
    """Compute :class:`FreeSpaceStats` for ``fs``."""
    lengths: List[int] = []
    for cg in fs.sb.cgs:
        lengths.extend(length for _start, length in cg.bitmap.block_runs())
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
