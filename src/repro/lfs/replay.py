"""Aging replay for the log-structured file system.

An LFS has no placement to steer (everything appends to the log head),
so this replayer runs the shared replay loop
(:class:`repro.aging.replay.Replayer`) and hands each create the
workload's directory, which the LFS ignores: Section 6's point that the
workload format can age any file system.  Daily samples read the pair
counts every change to an LFS block list keeps current;
:func:`repro.lfs.check.check_lfs` recounts them.
"""

from __future__ import annotations

from typing import Optional

from repro.aging.replay import Placement, Replayer, ReplayResult
from repro.aging.workload import Workload
from repro.gcpause import gc_paused
from repro.lfs.filesystem import LogStructuredFS
from repro.lfs.params import LFSParams


class LfsReplayer(Replayer[LogStructuredFS]):
    """Replays an aging workload against a log-structured file system.

    ``idle_clean_gap_days`` is the future-work knob: when the workload
    goes quiet for at least that long (fractional days), the replayer
    lets the cleaner run in the gap, so the copying is charged as
    background work instead of stalling a later write at the low-water
    mark.  ``None`` (the default) leaves cleaning purely on-demand.
    """

    def __init__(
        self,
        fs: LogStructuredFS,
        label: str = "LFS",
        idle_clean_gap_days: Optional[float] = None,
    ) -> None:
        super().__init__(fs, label)
        self.idle_gap = idle_clean_gap_days

    def _placement(self, workload: Workload) -> Placement:
        return workload.dir_table, workload.dir_id, 1, len(workload.dir_table)

    def _idle(self) -> None:
        self.fs.idle_clean()


def age_lfs(
    workload: Workload,
    params: Optional[LFSParams] = None,
    label: str = "LFS",
    idle_clean_gap_days: Optional[float] = None,
) -> ReplayResult[LogStructuredFS]:
    """Convenience: build a fresh LFS and age it with ``workload``, with
    the cyclic collector paused (see :mod:`repro.gcpause`)."""
    fs = LogStructuredFS(params)
    replayer = LfsReplayer(
        fs, label=label, idle_clean_gap_days=idle_clean_gap_days
    )
    with gc_paused():
        return replayer.replay(workload)
