"""Synthetic source file system: ground-truth activity and snapshots.

The paper reconstructs its aging workload from nightly snapshots of a
real 502 MB file server (home directories of one professor and three
students) plus NFS traces of short-lived files.  Neither data set is
available, so :class:`SourceActivityModel` simulates the *source file
system itself*: a population of files across directories, growing from
9% utilization to a 70–90% steady state over the simulation period, with
daily creates, deletes, in-place modifications (modeled as delete +
rewrite, per [Ousterhout85]), occasional cleanup days, and a large volume
of files that live for less than a day.

Two artefacts come out of the model:

* the **ground-truth workload** — every operation with its exact time —
  which stands in for "what really happened" (replaying it produces the
  "Real" curve of Figure 1);
* the **nightly snapshots** — the state of the live files at the end of
  each day, carrying exactly the fields the paper's snapshots had (inode
  number, inode change time, size) — from which
  :mod:`repro.aging.diff` reconstructs the approximate workload the way
  the paper did.

All randomness is drawn from named substreams of one master seed, so the
same seed always produces the identical ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from repro.aging.workload import (
    APPEND_CODE,
    CREATE_CODE,
    DELETE_CODE,
    Workload,
    WorkloadRow,
)
from repro.errors import SimulationError
from repro.ffs.params import FSParams
from repro import rng as rng_module
from repro.rng import SeededStreams
from repro.units import KB


@dataclass(frozen=True)
class FileRecord:
    """One file as it appears in a nightly snapshot.

    Mirrors the fields of the paper's snapshot format that the
    reconstruction uses: inode number, inode change time, and size.
    """

    __slots__ = ("ino", "size", "ctime", "directory")
    ino: int
    size: int
    ctime: float
    directory: str


@dataclass
class Snapshot:
    """State of the source file system at the end of one day."""

    day: int
    files: Dict[int, FileRecord]  # keyed by inode number


@dataclass(frozen=True)
class ActivityLevels:
    """Knobs controlling the intensity of daily activity.

    The defaults are calibrated so the paper-scale configuration (502 MB,
    300 days) produces on the order of the paper's 800,000 operations,
    with the op mix skewed heavily toward short-lived files as the trace
    studies ([Ousterhout85], [Baker91]) found.
    """

    #: Long-lived deletions per day, as a fraction of the live file count.
    #: Kept low: the source file system is four people's home directories,
    #: where old files mostly just sit (the paper's hot set — files
    #: touched in the final month of ten — is only 10.5% of all files).
    delete_rate: float = 0.003
    #: In-place modifications per day, as a fraction of live files.
    modify_rate: float = 0.003
    #: Short-lived create+delete pairs per day, per megabyte of capacity.
    short_pairs_per_mb: float = 2.0
    #: Mean number of consecutively created files removed per deletion
    #: event.  Real deletions are spatially correlated — users remove
    #: whole build trees and directories, freeing adjacent blocks — and
    #: this is why aged file systems still contain large free clusters
    #: ([Smith94]).
    delete_run_mean: float = 3.0
    #: Chance that a day is a "cleanup day" (a directory gets purged).
    cleanup_probability: float = 0.04
    #: Fraction of a purged directory's eligible files that are removed.
    cleanup_fraction: float = 0.7
    #: Log-normal parameters for long-lived file sizes (median 8 KB,
    #: mean ~50 KB — the source file system's 8774 files over ~450 MB).
    longlived_median: float = 8 * KB
    longlived_sigma: float = 1.9
    #: Log-normal parameters for short-lived file sizes.
    shortlived_median: float = 4 * KB
    shortlived_sigma: float = 1.6
    #: Files larger than this are written in several chunks over a span
    #: of time, interleaving with other activity — a major real-world
    #: fragmentation source invisible to nightly snapshots.
    chunk_threshold: int = 96 * KB
    #: Bytes per write chunk for chunked files.
    write_chunk_bytes: int = 128 * KB
    #: Fraction of a day over which a chunked file's writes spread.
    write_duration_frac: float = 0.05
    #: Hard cap on generated file sizes.
    max_file_size: int = 8 * 1024 * KB
    #: Utilization trajectory: start, plateau, and peak amplitude.
    start_utilization: float = 0.09
    plateau_utilization: float = 0.72
    peak_amplitude: float = 0.16
    #: Highest utilization the generator will aim for (head-room below
    #: the simulator's 90% hard limit).
    max_utilization: float = 0.88
    #: Per-cylinder-group utilization cap; creates overflowing a hot
    #: group are redirected to cooler ones, leaving the uneven per-group
    #: fill levels real aged file systems exhibit.
    per_cg_cap: float = 0.92


class SourceActivityModel:
    """Simulates the source file system day by day."""

    def __init__(
        self,
        params: FSParams,
        days: int,
        seed: int = 0,
        levels: Optional[ActivityLevels] = None,
        dirs_per_cg: int = 3,
    ) -> None:
        if days < 1:
            raise SimulationError("need at least one day of activity")
        self.params = params
        self.days = days
        self.levels = levels if levels is not None else ActivityLevels()
        self.streams = SeededStreams(seed)
        self.dirs_per_cg = max(1, dirs_per_cg)
        # Directory universe: each directory belongs to a cylinder group
        # and has a characteristic daily peak-activity time and a
        # popularity weight (Zipf-like: a few hot directories).
        self._dirs: List[str] = []
        self._dir_cg: Dict[str, int] = {}
        self._dir_peak: Dict[str, float] = {}
        self._dir_weight: Dict[str, float] = {}
        rng = self.streams.get("directories")
        for cg in range(params.ncg):
            for i in range(self.dirs_per_cg):
                name = f"dir{cg:03d}_{i}"
                self._dirs.append(name)
                self._dir_cg[name] = cg
                self._dir_peak[name] = 0.30 + 0.50 * rng.random()
                # Zipf over all directories with ranks interleaved
                # across groups: activity (and capacity pressure) is
                # skewed — some cylinder groups run hot and shred their
                # free space, others stay cold and keep the large free
                # runs [Smith94] observed on real aged file systems.
                # Overflow from full groups is redirected at create time
                # (users move data when a disk area fills).
                self._dir_weight[name] = 1.0 / (i * params.ncg + cg + 1)
        # Inode free lists per cylinder group (min-heap: FFS reuses the
        # lowest free inode, which recycles inode numbers realistically).
        self._free_inodes: List[List[int]] = []
        for cg in range(params.ncg):
            heap = list(
                range(cg * params.inodes_per_cg, (cg + 1) * params.inodes_per_cg)
            )
            self._free_inodes.append(heap)
        # Live file table.
        self._live: Dict[int, FileRecord] = {}  # by file_id
        self._live_ids: List[int] = []
        self._live_pos: Dict[int, int] = {}
        # Per-directory live files in creation order (insertion-ordered
        # dict), the basis for spatially correlated deletions.
        self._dir_live: Dict[str, Dict[int, None]] = {d: {} for d in self._dirs}
        self._frags_used = 0
        self._frags_used_cg: List[int] = [0] * params.ncg
        self._next_file_id = 0
        self._dir_cum_weights: Optional[List[float]] = None

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------

    def generate(self) -> Tuple[Workload, List[Snapshot]]:
        """Run the model; returns (ground-truth workload, nightly snapshots)."""
        rows: List[WorkloadRow] = []
        snapshots: List[Snapshot] = []
        for day in range(self.days):
            rows.extend(self._one_day(day))
            snapshots.append(self._snapshot(day))
        workload = Workload.from_rows(rows)
        workload.validate()
        return workload, snapshots

    # ------------------------------------------------------------------
    # Daily dynamics
    # ------------------------------------------------------------------

    def _one_day(self, day: int) -> List[WorkloadRow]:
        rng = self.streams.get("daily")
        ops: List[WorkloadRow] = []
        target_frags = int(self._target_utilization(day) * self._data_frags())
        n_eligible = sum(
            1 for fid in self._live_ids if self._live[fid].ctime < day
        )

        # Deletions: spatially correlated runs of consecutively created
        # files within one directory, plus occasional whole-directory
        # cleanups.  Correlated frees are what keep large free clusters
        # alive on real aged file systems ([Smith94]).
        n_deletes = self._poisson(rng, self.levels.delete_rate * n_eligible)
        deleted = 0
        guard = 0
        while deleted < n_deletes and guard < 10 * n_deletes + 10:
            guard += 1
            run = self._pick_victim_run(
                rng, day, 1 + self._poisson(rng, self.levels.delete_run_mean - 1)
            )
            if not run:
                break
            for fid in run:
                ops.append(
                    self._delete(
                        fid, day + self._op_time(rng, self._live[fid].directory)
                    )
                )
                deleted += 1
        if rng.random() < self.levels.cleanup_probability:
            ops.extend(self._cleanup_directory(rng, day))

        # Shrink: after the utilization peak the target declines; users
        # free space in correlated bursts until the file system follows.
        # The hysteresis margin keeps day-to-day target noise from
        # becoming a delete-everything/recreate-everything oscillation.
        margin = int(0.02 * self._data_frags())
        guard = 0
        while self._frags_used > target_frags + margin and guard < 2000:
            run = self._pick_victim_run(
                rng, day, 1 + self._poisson(rng, self.levels.delete_run_mean - 1)
            )
            if not run:
                break
            for fid in run:
                guard += 1
                ops.append(
                    self._delete(
                        fid, day + self._op_time(rng, self._live[fid].directory)
                    )
                )

        # In-place modifications: delete + rewrite with the same inode.
        n_mods = self._poisson(rng, self.levels.modify_rate * n_eligible)
        for _ in range(n_mods):
            run = self._pick_victim_run(rng, day, 1)
            if not run:
                break
            fid = run[0]
            record = self._live[fid]
            when = day + self._op_time(rng, record.directory)
            ops.append(self._delete(fid, when, keep_ino=record.ino))
            new_size = self._perturb_size(rng, record.size)
            ops.extend(
                self._emit_file(
                    rng, when + 1e-4, record.directory, new_size,
                    force_ino=record.ino,
                )
            )

        # Growth: create long-lived files until the utilization target.
        while self._frags_used < target_frags:
            size = self._longlived_size(rng)
            if self._frags_for(size) + self._frags_used > int(
                self.levels.max_utilization * self._data_frags()
            ):
                break
            directory = self._pick_directory_for_space(rng, self._frags_for(size))
            ops.extend(
                self._emit_file(
                    rng, day + self._op_time(rng, directory), directory, size
                )
            )

        # Short-lived churn: create+delete pairs within the day.
        n_short = self._poisson(
            rng,
            self.levels.short_pairs_per_mb * self.params.actual_size_bytes / (1024 * 1024),
        )
        for _ in range(n_short):
            directory = self._pick_directory(rng)
            size = self._shortlived_size(rng)
            t_create = day + self._op_time(rng, directory)
            lifetime = min(rng.expovariate(12.0), 0.4)  # mean ~2 hours
            t_delete = min(t_create + max(lifetime, 1e-4), day + 0.9999)
            created = self._create(t_create, directory, size, short_lived=True)
            ops.append(created)
            ops.append(self._delete(created.file_id, t_delete))
        return ops

    def _snapshot(self, day: int) -> Snapshot:
        files = {rec.ino: rec for rec in self._live.values()}
        return Snapshot(day=day, files=files)

    def _pick_victim_run(self, rng: rng_module.Random, day: int, length: int) -> List[int]:
        """A run of up to ``length`` consecutively created eligible files
        from one directory (weighted toward busy directories)."""
        for _attempt in range(8):
            directory = self._pick_directory(rng)
            eligible = [
                fid
                for fid in self._dir_live[directory]
                if self._live[fid].ctime < day
            ]
            if not eligible:
                continue
            start = rng.randrange(len(eligible))
            return eligible[start : start + max(1, length)]
        return []

    def _cleanup_directory(self, rng: rng_module.Random, day: int) -> List[WorkloadRow]:
        """Purge most of one directory — a user removing a build tree."""
        ops: List[WorkloadRow] = []
        directory = self._pick_directory(rng)
        eligible = [
            fid
            for fid in self._dir_live[directory]
            if self._live[fid].ctime < day
        ]
        n = int(len(eligible) * self.levels.cleanup_fraction)
        when_base = self._op_time(rng, directory)
        for fid in eligible[:n]:
            when = day + min(0.9999, when_base + rng.random() * 0.02)
            ops.append(self._delete(fid, when))
        return ops

    # ------------------------------------------------------------------
    # Primitive operations
    # ------------------------------------------------------------------

    def _emit_file(
        self,
        rng,
        when: float,
        directory: str,
        size: int,
        force_ino: Optional[int] = None,
    ) -> List[WorkloadRow]:
        """Create a long-lived file, chunking large writes over time.

        Bookkeeping (live table, utilization) records the full size at
        once; the *emitted operations* split files above the chunk
        threshold into a create plus appends spread over part of the
        day, so the ground-truth replay interleaves them with other
        activity the way concurrent clients would.
        """
        full = self._create(when, directory, size, force_ino=force_ino)
        levels = self.levels
        if size <= levels.chunk_threshold:
            return [full]
        chunk = levels.write_chunk_bytes
        day = int(when)
        first = min(chunk, size)
        rows = [
            WorkloadRow(
                full.time, full.file_id, CREATE_CODE, first, full.src_ino,
                directory,
            )
        ]
        remaining = size - first
        n_chunks = -(-remaining // chunk)
        duration = rng.uniform(0.2, 1.0) * levels.write_duration_frac
        for i in range(n_chunks):
            piece = min(chunk, remaining)
            remaining -= piece
            t = min(when + duration * (i + 1) / n_chunks, day + 0.99995)
            rows.append(
                WorkloadRow(
                    t, full.file_id, APPEND_CODE, piece, full.src_ino,
                    directory,
                )
            )
        return rows

    def _create(
        self,
        when: float,
        directory: str,
        size: int,
        force_ino: Optional[int] = None,
        short_lived: bool = False,
    ) -> WorkloadRow:
        cg = self._dir_cg[directory]
        if force_ino is not None:
            # Modify path: the inode was held back by the paired delete
            # (keep_ino), so it is not on any free list.
            ino = force_ino
        else:
            ino = self._alloc_inode(cg)
        fid = self._next_file_id
        self._next_file_id += 1
        record = FileRecord(ino=ino, size=size, ctime=when, directory=directory)
        self._live[fid] = record
        self._live_pos[fid] = len(self._live_ids)
        self._live_ids.append(fid)
        self._dir_live[directory][fid] = None
        frags = self._frags_for(size)
        self._frags_used += frags
        self._frags_used_cg[cg] += frags
        return WorkloadRow(when, fid, CREATE_CODE, size, ino, directory)

    def _delete(
        self, fid: int, when: float, keep_ino: Optional[int] = None
    ) -> WorkloadRow:
        record = self._live.pop(fid)
        pos = self._live_pos.pop(fid)
        last = self._live_ids.pop()
        if last != fid:
            self._live_ids[pos] = last
            self._live_pos[last] = pos
        del self._dir_live[record.directory][fid]
        frags = self._frags_for(record.size)
        self._frags_used -= frags
        self._frags_used_cg[self._dir_cg[record.directory]] -= frags
        if keep_ino is None:
            cg = record.ino // self.params.inodes_per_cg
            heappush(self._free_inodes[cg], record.ino)
        return WorkloadRow(
            when, fid, DELETE_CODE, 0, record.ino, record.directory
        )

    # ------------------------------------------------------------------
    # Distributions and helpers
    # ------------------------------------------------------------------

    def _target_utilization(self, day: int) -> float:
        levels = self.levels
        ramp_end = max(1, int(self.days * 0.2))
        noise_rng = self.streams.get("utilization-noise")
        # Stable per-day noise: derive from day number, not call order.
        noise_rng.seed(f"{self.streams.master_seed}:u-noise:{day}")
        noise = noise_rng.gauss(0.0, 0.015)
        if day < ramp_end:
            base = levels.start_utilization + (
                levels.plateau_utilization - levels.start_utilization
            ) * (day / ramp_end)
        else:
            t = (day - ramp_end) / max(1, self.days - ramp_end)
            base = levels.plateau_utilization + levels.peak_amplitude * math.sin(
                math.pi * t
            )
        return max(0.02, min(levels.max_utilization, base + noise))

    def _data_frags(self) -> int:
        return self.params.data_frags

    def _frags_for(self, size: int) -> int:
        """Fragments a file of ``size`` bytes consumes on the file system.

        Includes block rounding and indirect blocks, so the model's
        utilization bookkeeping matches what the replay will allocate.
        """
        params = self.params
        if size == 0:
            return 0
        full, tail_frags = params.layout_for_size(size)
        frags = full * params.frags_per_block + tail_frags
        if full > params.ndaddr:
            nindir = params.block_size // 4
            indirects = 1 + (full - params.ndaddr - 1) // nindir
            frags += indirects * params.frags_per_block
        return frags

    def _op_time(self, rng: rng_module.Random, directory: str) -> float:
        """Fraction-of-day time for an op, clustered at the dir's peak."""
        peak = self._dir_peak[directory]
        t = rng.gauss(peak, 0.08)
        return min(0.9999, max(0.0001, t))

    def _pick_directory_for_space(self, rng: rng_module.Random, nfrags: int) -> str:
        """Weighted directory pick that respects per-group capacity.

        Hot groups fill to ``per_cg_cap`` and further growth spills to
        cooler groups, producing the uneven per-group utilization of a
        real aged file system.
        """
        per_cg_frags = (
            self.params.data_blocks_per_cg * self.params.frags_per_block
        )
        cap = self.levels.per_cg_cap * per_cg_frags
        for _attempt in range(8):
            directory = self._pick_directory(rng)
            cg = self._dir_cg[directory]
            if self._frags_used_cg[cg] + nfrags <= cap:
                return directory
        # Everything popular is full: take the coolest group's hot dir.
        coolest = min(
            range(self.params.ncg), key=lambda c: self._frags_used_cg[c]
        )
        return f"dir{coolest:03d}_0"

    def _pick_directory(self, rng: rng_module.Random) -> str:
        if self._dir_cum_weights is None:
            from itertools import accumulate

            self._dir_cum_weights = list(
                accumulate(self._dir_weight[d] for d in self._dirs)
            )
        return rng.choices(self._dirs, cum_weights=self._dir_cum_weights, k=1)[0]

    def _longlived_size(self, rng: rng_module.Random) -> int:
        return self._lognormal(
            rng, self.levels.longlived_median, self.levels.longlived_sigma
        )

    def _shortlived_size(self, rng: rng_module.Random) -> int:
        return self._lognormal(
            rng, self.levels.shortlived_median, self.levels.shortlived_sigma
        )

    def _perturb_size(self, rng: rng_module.Random, size: int) -> int:
        """New size after a modify: usually similar, sometimes larger."""
        factor = math.exp(rng.gauss(0.05, 0.35))
        return max(1, min(self.levels.max_file_size, int(size * factor)))

    def _lognormal(self, rng: rng_module.Random, median: float, sigma: float) -> int:
        size = int(median * math.exp(rng.gauss(0.0, sigma)))
        return max(256, min(self.levels.max_file_size, size))

    def _poisson(self, rng: rng_module.Random, lam: float) -> int:
        """Poisson sample via inversion (lam is modest in this model)."""
        if lam <= 0:
            return 0
        if lam > 500:
            return max(0, int(rng.gauss(lam, math.sqrt(lam))))
        level = math.exp(-lam)
        k = 0
        product = rng.random()
        while product > level:
            k += 1
            product *= rng.random()
        return k

    def _alloc_inode(self, cg: int) -> int:
        order = [cg] + [(cg + i) % self.params.ncg for i in range(1, self.params.ncg)]
        for candidate in order:
            if self._free_inodes[candidate]:
                return heappop(self._free_inodes[candidate])
        raise SimulationError("source model ran out of inodes")
