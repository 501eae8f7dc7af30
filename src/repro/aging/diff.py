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

The reconstruction runs a day at a time (:class:`SnapshotDiffer`), so
the short-lived NFS churn can be folded into each day as it is made.
It reads only the entries that differ between two snapshots, as
(old record, new record) pairs: the source model hands those out each
night, and :func:`diff_snapshots` finds them by scanning two full
snapshots.
"""

from __future__ import annotations

from itertools import chain, count
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.aging.snapshot import Change, FileRecord, Snapshot
from repro.aging.workload import (
    CREATE_CODE,
    DELETE_CODE,
    Row,
    Workload,
    WorkloadRow,
)
from repro.rng import SeededStreams


class SnapshotDiffer:
    """The reconstruction, one night's changes at a time.

    Holds only the reconstructed file id of each live source inode.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._rng = SeededStreams(seed).get("delete-times")
        self._ids = count()
        self._live_fid: Dict[int, int] = {}  # source ino -> file id

    def next_day(self, day: int, changes: Iterable[Change]) -> List[Row]:
        """Day ``day``'s operations, inferred from the snapshot entries
        that changed since the night before (every entry of the first
        snapshot, matching the paper's choice of a 9%-full starting
        point).

        ``changes`` lists tonight's entries in tonight's snapshot order,
        and the deleted ones in last night's; pairs whose inode change
        time did not move yield nothing.
        """
        rng, ids, live_fid = self._rng, self._ids, self._live_fid
        rng.seed(f"{self._seed}:delete-times:{day}")
        ops: List[Row] = []
        modified: List[Tuple[FileRecord, FileRecord]] = []
        deleted: List[FileRecord] = []
        times: List[float] = []
        # Creates, in one pass with the modified and deleted files:
        # timestamped by the inode change time (clamped into the day in
        # case the snapshot carried a stale value).
        for before, record in changes:
            if record is None:
                if before is not None:
                    deleted.append(before)
            elif before is None:
                ino = record.ino
                fid = live_fid[ino] = next(ids)
                ops.append((
                    _clamp_into_day(record.ctime, day), fid, CREATE_CODE,
                    record.size, ino, record.directory,
                ))
                times.append(record.ctime)
            elif before.ctime != record.ctime:
                modified.append((before, record))
                times.append(record.ctime)

        # Deletes: random times within today's activity span.
        span = _activity_span(times, day)
        for record in deleted:
            ino = record.ino
            ops.append((
                rng.uniform(*span), live_fid.pop(ino), DELETE_CODE, 0,
                ino, record.directory,
            ))

        # Modifies: delete immediately before the rewrite.
        for before, record in modified:
            ino = record.ino
            when = _clamp_into_day(record.ctime, day)
            ops.append((
                max(day + 1e-6, when - 1e-4), live_fid[ino], DELETE_CODE, 0,
                ino, before.directory,
            ))
            fid = live_fid[ino] = next(ids)
            ops.append((when, fid, CREATE_CODE, record.size, ino, record.directory))
        return ops


def diff_snapshots(
    snapshots: Sequence[Snapshot], seed: int = 0
) -> List[List[WorkloadRow]]:
    """Reconstruct per-day operations from a snapshot series: one list
    of rows per snapshot (see :class:`SnapshotDiffer`), each from a scan
    of the snapshot and the one before it."""
    differ = SnapshotDiffer(seed)
    days: List[List[WorkloadRow]] = []
    old: Dict[int, FileRecord] = {}
    for snapshot in snapshots:
        new = snapshot.files
        changes: List[Change] = [(old.get(ino), rec) for ino, rec in new.items()]
        changes += [(rec, None) for ino, rec in old.items() if ino not in new]
        rows = differ.next_day(snapshot.day, changes)
        days.append(list(map(WorkloadRow._make, rows)))
        old = new
    return days


def merge_days(days: Sequence[Sequence[Row]]) -> Workload:
    """Merge per-day operation lists into a validated workload."""
    workload = Workload.from_rows(chain.from_iterable(days))
    workload.validate()
    return workload


def directory_activity(
    day_ops: Sequence[Row],
) -> List[Tuple[str, int, float, int]]:
    """Directories ranked by change count for one day.

    Returns (directory, change count, mean op time, source inode of its
    first op) sorted by descending activity — the ranking used to decide
    where the short-lived NFS files go, what time to shift them to, and
    which inode steers them to the directory's group (Section 3.1).
    """
    counts: Dict[str, int] = {}
    time_sums: Dict[str, float] = {}
    first_ino: Dict[str, int] = {}
    for time, _fid, _code, _size, ino, directory in day_ops:
        counts[directory] = counts.get(directory, 0) + 1
        time_sums[directory] = time_sums.get(directory, 0.0) + time
        first_ino.setdefault(directory, ino)
    ranked = sorted(counts, key=lambda d: (-counts[d], d))
    return [(d, counts[d], time_sums[d] / counts[d], first_ino[d]) for d in ranked]


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
