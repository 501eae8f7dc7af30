"""Aging replay for the log-structured file system.

The paper's replayer steers files into cylinder groups; an LFS has no
placement to steer (everything appends to the log head), so this replay
applies the same workload operations and simply ignores the directory
hints — demonstrating the generalisation Section 6 calls for: the
workload format carries enough information to age any file system, and
the per-file-system replayer decides what placement metadata to use.

Daily layout samples read two integers the file system keeps current
(:attr:`LogStructuredFS.optimal_pairs` and ``countable_pairs``): every
change to a block list — user writes and the cleaner's copies alike —
goes through one helper that adjusts them, so a sample costs O(1)
instead of a re-score of every live file, and divides the same two
integers a re-score would sum.  :func:`repro.lfs.check.check_lfs`
recounts them.
"""

from __future__ import annotations

from typing import Optional

from repro.aging.replay import ReplayResult
from repro.aging.workload import Workload
from repro.analysis.timeline import DailySample, Timeline
from repro.errors import OutOfSpaceError
from repro.lfs.filesystem import LogStructuredFS
from repro.lfs.params import LFSParams


class LfsReplayer:
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
        self.fs = fs
        self.label = label
        self.idle_clean_gap_days = idle_clean_gap_days

    def replay(
        self, workload: Workload, sample_days: bool = True
    ) -> ReplayResult:
        """Apply every operation; returns a ReplayResult-like record.

        Iterates the workload's columns, as the FFS replayer does.
        """
        result = ReplayResult(
            fs=self.fs,  # type: ignore[arg-type]
            timeline=Timeline(label=self.label),
        )
        fs = self.fs
        gap = self.idle_clean_gap_days
        dirs = workload.dir_table
        live = result.live_files
        current_day = 0
        last_time = 0.0
        ino: Optional[int]
        for code, when, file_id, size, dir_id in zip(
            workload.op, workload.time, workload.file_id, workload.size,
            workload.dir_id,
        ):
            if gap is not None and when - last_time >= gap:
                fs.idle_clean()
            last_time = when
            while sample_days and int(when) > current_day:
                self._sample(result, current_day)
                current_day += 1
            if code == 0:  # create
                try:
                    ino = fs.create_file(dirs[dir_id], size, when=when)
                except OutOfSpaceError:
                    result.skipped_no_space += 1
                    continue
                live[file_id] = ino
                result.creates += 1
                result.bytes_written += size
            elif code == 1:  # append
                ino = live.get(file_id)
                if ino is None:
                    continue
                try:
                    fs.append(ino, size, when=when)
                except OutOfSpaceError:
                    result.skipped_no_space += 1
                    continue
                result.bytes_written += size
            else:  # delete
                ino = live.pop(file_id, None)
                if ino is None:
                    continue
                fs.delete_file(ino, when=when)
                result.deletes += 1
            result.ops_applied += 1
        if sample_days:
            self._sample(result, current_day)
        return result

    def _sample(self, result: ReplayResult, day: int) -> None:
        fs = self.fs
        countable = fs.countable_pairs
        result.timeline.add(
            DailySample(
                day=day,
                layout_score=(
                    fs.optimal_pairs / countable if countable else 1.0
                ),
                utilization=fs.utilization(),
                live_files=len(fs.inodes),
                ops_applied=result.ops_applied,
            )
        )


def age_lfs(
    workload: Workload,
    params: Optional[LFSParams] = None,
    label: str = "LFS",
    idle_clean_gap_days: Optional[float] = None,
) -> ReplayResult:
    """Convenience: build a fresh LFS and age it with ``workload``."""
    fs = LogStructuredFS(params)
    replayer = LfsReplayer(
        fs, label=label, idle_clean_gap_days=idle_clean_gap_days
    )
    return replayer.replay(workload)
