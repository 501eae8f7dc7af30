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
small log-normal sizes.  :func:`integrate_short_lived` then performs the
paper's placement/time-shifting step verbatim against the reconstructed
per-day operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.aging.diff import directory_activity
from repro.aging.workload import CREATE_CODE, DELETE_CODE, WorkloadRow
from repro import rng as rng_module
from repro.rng import SeededStreams
from repro.units import KB


@dataclass(frozen=True)
class TraceFile:
    """One short-lived file from a (synthetic) NFS trace day."""

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
        total_weight = sum(dir_weights)
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


def integrate_short_lived(
    per_day_ops: Sequence[List[WorkloadRow]],
    trace: SyntheticNFSTrace,
    seed: int = 0,
    first_file_id: int = 1 << 40,
) -> List[List[WorkloadRow]]:
    """Fold short-lived trace files into each reconstructed day.

    For each day: sample one trace day, group its files by trace
    directory (busiest first), map those groups onto the source
    directories with the most changes that day, and shift each group's
    times so its mean create time lands on the target directory's mean
    activity time.  Short-lived file ids start at ``first_file_id`` so
    they can never collide with reconstructed ids.
    """
    streams = SeededStreams(seed)
    rng = streams.get("trace-sampling")
    next_fid = first_file_id
    out: List[List[WorkloadRow]] = []
    for day_index, day_ops in enumerate(per_day_ops):
        merged = list(day_ops)
        ranked = directory_activity(day_ops)
        if ranked:
            trace_day = trace.days[rng.randrange(trace.n_days)]
            groups: Dict[int, List[TraceFile]] = {}
            for tf in trace_day:
                groups.setdefault(tf.trace_dir, []).append(tf)
            # Busiest trace directories map onto busiest source dirs.
            ordered_groups = sorted(
                groups.values(), key=lambda g: -len(g)
            )
            for rank, group in enumerate(ordered_groups):
                target_dir, _count, peak_time = ranked[rank % len(ranked)]
                target_ino = _representative_ino(day_ops, target_dir)
                group_mean = sum(tf.create_frac for tf in group) / len(group)
                # Anchor to the day the reconstructed ops actually carry
                # (normally equal to the list index, but derived from the
                # data so partial day lists behave sensibly too).
                base_day = float(int(day_ops[0].time)) if day_ops else float(day_index)
                shift = (peak_time - base_day) - group_mean
                for tf in group:
                    t_create = _clamp(base_day + tf.create_frac + shift, base_day)
                    t_delete = _clamp(
                        base_day + tf.delete_frac + shift, base_day
                    )
                    if t_delete <= t_create:
                        t_delete = min(base_day + 0.9999, t_create + 1e-4)
                    fid = next_fid
                    next_fid += 1
                    merged.append(
                        WorkloadRow(
                            t_create, fid, CREATE_CODE, tf.size, target_ino,
                            target_dir,
                        )
                    )
                    merged.append(
                        WorkloadRow(
                            t_delete, fid, DELETE_CODE, 0, target_ino,
                            target_dir,
                        )
                    )
        out.append(merged)
    return out


def _representative_ino(
    day_ops: Sequence[WorkloadRow], directory: str
) -> int:
    """A source inode belonging to ``directory``, for cg steering."""
    for record in day_ops:
        if record.directory == directory:
            return record.src_ino
    return 0


def _clamp(when: float, day: float) -> float:
    return min(day + 0.9999, max(day + 1e-6, when))
