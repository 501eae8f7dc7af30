"""Workload reconstruction from nightly snapshots (Section 3.1).

Given only the nightly snapshots of the source file system, rebuild an
approximate workload using exactly the paper's heuristics:

* a file present in today's snapshot but not yesterday's was **created**
  at its recorded inode change time;
* a file present yesterday but not today was **deleted** at a random
  time "during the range of times that other operations were occurring"
  that day;
* a file present in both snapshots whose inode change time moved was
  **modified**, treated as a delete followed by a rewrite at the new
  change time (files are seldom modified in place, per [Ousterhout85]).

The reconstruction is returned per-day so the short-lived NFS churn can
be folded into the right days before the final merge.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

from repro.aging.snapshot import Snapshot
from repro.aging.workload import (
    CREATE_CODE,
    DELETE_CODE,
    Workload,
    WorkloadRow,
)
from repro.rng import SeededStreams


class _IdAllocator:
    """Fresh file ids for reconstructed lifetimes."""

    def __init__(self) -> None:
        self._next = 0

    def take(self) -> int:
        """Return the next unused file id."""
        fid = self._next
        self._next += 1
        return fid


def diff_snapshots(
    snapshots: Sequence[Snapshot], seed: int = 0
) -> List[List[WorkloadRow]]:
    """Reconstruct per-day operations from a snapshot series.

    Day ``d``'s operations are those inferred between snapshot ``d-1``
    (empty for day 0, matching the paper's choice of a 9%-full starting
    point) and snapshot ``d``.  Returns one list of rows per day.
    """
    streams = SeededStreams(seed)
    ids = _IdAllocator()
    live_fid: Dict[int, int] = {}  # source ino -> reconstructed file id
    days: List[List[WorkloadRow]] = []
    previous: Optional[Snapshot] = None
    for snapshot in snapshots:
        day_ops: List[WorkloadRow] = []
        old = previous.files if previous is not None else {}
        new = snapshot.files
        day = snapshot.day
        rng = streams.get("delete-times")
        rng.seed(f"{seed}:delete-times:{day}")

        created = [ino for ino in new if ino not in old]
        deleted = [ino for ino in old if ino not in new]
        modified = [
            ino
            for ino in new
            if ino in old and new[ino].ctime != old[ino].ctime
        ]

        # Creates: timestamped by the inode change time (clamped into
        # the day in case the snapshot carried a stale value).
        for ino in created:
            record = new[ino]
            when = _clamp_into_day(record.ctime, day)
            fid = ids.take()
            live_fid[ino] = fid
            day_ops.append(
                WorkloadRow(
                    when, fid, CREATE_CODE, record.size, ino, record.directory
                )
            )

        # The observable span of today's activity, for delete times.
        span = _activity_span(
            [new[ino].ctime for ino in created]
            + [new[ino].ctime for ino in modified],
            day,
        )

        # Deletes: random times within today's activity span.
        for ino in deleted:
            record = old[ino]
            fid = live_fid.pop(ino)
            when = rng.uniform(*span)
            day_ops.append(
                WorkloadRow(when, fid, DELETE_CODE, 0, ino, record.directory)
            )

        # Modifies: delete immediately before the rewrite.
        for ino in modified:
            record = new[ino]
            when = _clamp_into_day(record.ctime, day)
            old_fid = live_fid.pop(ino)
            day_ops.append(
                WorkloadRow(
                    max(day + 1e-6, when - 1e-4), old_fid, DELETE_CODE, 0,
                    ino, old[ino].directory,
                )
            )
            fid = ids.take()
            live_fid[ino] = fid
            day_ops.append(
                WorkloadRow(
                    when, fid, CREATE_CODE, record.size, ino, record.directory
                )
            )

        days.append(day_ops)
        previous = snapshot
    return days


def merge_days(days: Sequence[Sequence[WorkloadRow]]) -> Workload:
    """Merge per-day operation lists into a validated workload."""
    workload = Workload.from_rows(chain.from_iterable(days))
    workload.validate()
    return workload


def directory_activity(
    day_ops: Sequence[WorkloadRow],
) -> List[Tuple[str, int, float]]:
    """Directories ranked by change count for one day.

    Returns (directory, change count, mean op time) sorted by descending
    activity — the ranking used to decide where the short-lived NFS
    files go and what time to shift them to (Section 3.1).
    """
    counts: Dict[str, int] = {}
    time_sums: Dict[str, float] = {}
    for record in day_ops:
        counts[record.directory] = counts.get(record.directory, 0) + 1
        time_sums[record.directory] = time_sums.get(record.directory, 0.0) + record.time
    ranked = sorted(counts, key=lambda d: (-counts[d], d))
    return [(d, counts[d], time_sums[d] / counts[d]) for d in ranked]


def _clamp_into_day(when: float, day: int) -> float:
    return min(day + 0.9999, max(day + 1e-6, when))


def _activity_span(times: List[float], day: int) -> Tuple[float, float]:
    if not times:
        return (day + 0.1, day + 0.9)
    lo = max(day + 1e-6, min(times))
    hi = min(day + 0.9999, max(times))
    if hi <= lo:
        hi = min(day + 0.9999, lo + 0.1)
    return (lo, hi)
