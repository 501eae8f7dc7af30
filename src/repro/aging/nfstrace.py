"""Synthetic NFS trace days: the short-lived-file churn source.

The paper fills in the create/delete pairs invisible to nightly
snapshots using multi-day NFS traces from Network Appliance file servers
([Hitz94], previously used in [Blackwell95]): for each snapshot day it
samples one trace day, places the trace's short-lived files in the
directories that changed the most between snapshots, and time-shifts
each directory's operations to coincide with the peak activity in its
target directory.

The traces themselves are proprietary, so :class:`SyntheticNFSTrace`
generates days with the same relevant structure: a Poisson number of
same-day create/delete pairs, Zipf-weighted across trace directories,
clustered in time per directory, with sub-day exponential lifetimes and
small log-normal sizes.  :class:`ShortLivedFolder` then performs the
paper's placement/time-shifting step verbatim against each reconstructed
day's operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.aging.diff import directory_activity
from repro.aging.workload import CREATE_CODE, DELETE_CODE, Row, WorkloadRow
from repro import rng as rng_module
from repro.rng import SeededStreams
from repro.units import KB


def sum_in_order(values: Iterable[float]) -> float:
    """Left-to-right float sum.

    Python 3.12's built-in ``sum`` compensates float rounding, so with
    it the generated workload would depend on the interpreter version.
    """
    return reduce(add, values, 0.0)


@dataclass(frozen=True)
class TraceFile:
    """One short-lived file from a (synthetic) NFS trace day."""

    __slots__ = ("trace_dir", "create_frac", "delete_frac", "size")
    #: Directory identifier within the trace (not a source-FS directory).
    trace_dir: int
    #: Create time as a fraction of the trace day.
    create_frac: float
    #: Delete time as a fraction of the trace day (> create_frac).
    delete_frac: float
    size: int


class SyntheticNFSTrace:
    """A bank of synthetic trace days to sample from."""

    def __init__(
        self,
        seed: int = 0,
        n_days: int = 14,
        pairs_per_day: float = 400.0,
        n_trace_dirs: int = 20,
        size_median: float = 4 * KB,
        size_sigma: float = 1.6,
        mean_lifetime_frac: float = 0.08,
        max_size: int = 1024 * KB,
    ):
        if n_days < 1:
            raise ValueError("need at least one trace day")
        self.n_days = n_days
        streams = SeededStreams(seed)
        rng = streams.get("nfs-trace")
        dir_peaks = [0.3 + 0.5 * rng.random() for _ in range(n_trace_dirs)]
        dir_weights = [1.0 / (rank + 1) for rank in range(n_trace_dirs)]
        total_weight = sum_in_order(dir_weights)
        self.days: List[List[TraceFile]] = []
        for _day in range(n_days):
            n = self._poisson(rng, pairs_per_day)
            files: List[TraceFile] = []
            for _ in range(n):
                r = rng.random() * total_weight
                trace_dir = 0
                acc = 0.0
                for idx, w in enumerate(dir_weights):
                    acc += w
                    if r <= acc:
                        trace_dir = idx
                        break
                create = min(0.95, max(0.01, rng.gauss(dir_peaks[trace_dir], 0.08)))
                lifetime = max(1e-4, rng.expovariate(1.0 / mean_lifetime_frac))
                delete = min(0.9999, create + lifetime)
                size = int(size_median * math.exp(rng.gauss(0.0, size_sigma)))
                size = max(256, min(max_size, size))
                files.append(
                    TraceFile(
                        trace_dir=trace_dir, create_frac=create,
                        delete_frac=delete, size=size,
                    )
                )
            # Sort by directory then time, like the paper's trace log
            # ("sorted by the day they were created and the directory in
            # which they were created").
            files.sort(key=lambda f: (f.trace_dir, f.create_frac))
            self.days.append(files)

    @staticmethod
    def _poisson(rng: rng_module.Random, lam: float) -> int:
        if lam <= 0:
            return 0
        if lam > 500:
            return max(0, int(rng.gauss(lam, math.sqrt(lam))))
        level = math.exp(-lam)
        k, product = 0, rng.random()
        while product > level:
            k += 1
            product *= rng.random()
        return k


#: One trace directory's files and their mean create time.
TraceGroup = Tuple[float, List[TraceFile]]


class ShortLivedFolder:
    """The paper's placement and time-shifting step, one day at a time.

    For each day: sample one trace day, group its files by trace
    directory (busiest first), map those groups onto the source
    directories with the most changes that day, and shift each group's
    times so its mean create time lands on the target directory's mean
    activity time.  Short-lived file ids start at ``first_file_id`` so
    they can never collide with reconstructed ids.  A trace day is
    grouped and ranked the first time it is sampled, and kept.
    """

    def __init__(
        self,
        trace: SyntheticNFSTrace,
        seed: int = 0,
        first_file_id: int = 1 << 40,
    ) -> None:
        self._trace = trace
        self._rng = SeededStreams(seed).get("trace-sampling")
        self._next_fid = first_file_id
        self._grouped: List[Optional[List[TraceGroup]]] = [None] * trace.n_days

    def _groups(self, index: int) -> List[TraceGroup]:
        """Trace day ``index``'s groups, busiest trace directory first."""
        ordered = self._grouped[index]
        if ordered is None:
            groups: Dict[int, List[TraceFile]] = {}
            for tf in self._trace.days[index]:
                groups.setdefault(tf.trace_dir, []).append(tf)
            ordered = self._grouped[index] = [
                (
                    sum_in_order(tf.create_frac for tf in group) / len(group),
                    group,
                )
                for group in sorted(groups.values(), key=lambda g: -len(g))
            ]
        return ordered

    def fold(self, day_ops: List[Row]) -> List[Row]:
        """Append one day's short-lived pairs to ``day_ops`` and return it."""
        ranked = directory_activity(day_ops)
        if not ranked:
            return day_ops
        # Busiest trace directories map onto busiest source dirs.
        groups = self._groups(self._rng.randrange(self._trace.n_days))
        # Anchor to the day the reconstructed ops carry (derived from the
        # data, so partial day lists behave sensibly too), and clamp
        # times into [base_day + 1e-6, base_day + 0.9999].
        base_day = float(int(day_ops[0][0]))
        first, last = base_day + 1e-6, base_day + 0.9999
        next_fid = self._next_fid
        for rank, (group_mean, group) in enumerate(groups):
            target_dir, _count, peak_time, target_ino = ranked[rank % len(ranked)]
            shift = (peak_time - base_day) - group_mean
            for fid, tf in enumerate(group, next_fid):
                # min(last, max(first, t)), without the two calls.
                t_create = base_day + tf.create_frac + shift
                t_create = t_create if t_create > first else first
                t_create = t_create if t_create < last else last
                t_delete = base_day + tf.delete_frac + shift
                t_delete = t_delete if t_delete > first else first
                t_delete = t_delete if t_delete < last else last
                if t_delete <= t_create:
                    t_delete = min(last, t_create + 1e-4)
                day_ops += (
                    (t_create, fid, CREATE_CODE, tf.size, target_ino, target_dir),
                    (t_delete, fid, DELETE_CODE, 0, target_ino, target_dir),
                )
            next_fid += len(group)
        self._next_fid = next_fid
        return day_ops


def integrate_short_lived(
    per_day_ops: Sequence[Sequence[Row]],
    trace: SyntheticNFSTrace,
    seed: int = 0,
    first_file_id: int = 1 << 40,
) -> List[List[WorkloadRow]]:
    """Fold short-lived trace files into each reconstructed day (see
    :class:`ShortLivedFolder`); the input lists are left as they were."""
    folder = ShortLivedFolder(trace, seed, first_file_id)
    return [
        list(map(WorkloadRow._make, folder.fold(list(day_ops))))
        for day_ops in per_day_ops
    ]
