"""Replaying an aging workload against a simulated file system.

This is Section 3.2 of the paper.  The replayer's one clever trick is
how it forces each file into the cylinder group it occupied on the
source file system without knowing any pathnames:

1. on the empty file system, create one directory per cylinder group —
   the ``dirpref`` rule guarantees they land in distinct groups;
2. for each file in the workload, compute its source cylinder group from
   its source inode number, and create the file in the corresponding
   seed directory — FFS places files in their directory's group, so
   every group sees the same allocate/free sequence it saw on the
   source system.

The replayer samples the aggregate layout score (and utilization) at the
end of every simulated day, producing the curves of Figures 1 and 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro import obs
from repro.aging.workload import Workload
from repro.analysis.layout import optimal_pairs
from repro.analysis.timeline import DailySample, Timeline
from repro.obs import events as obs_events
from repro.errors import FaultInjectionError, OutOfSpaceError, SimulationError
from repro.ffs.filesystem import FileSystem
from repro.ffs.params import FSParams

if TYPE_CHECKING:  # imported lazily to keep repro.faults optional at runtime
    from repro.faults.injector import CrashSummary, FaultInjector


@dataclass
class ReplayResult:
    """Outcome of one aging replay."""

    fs: FileSystem
    timeline: Timeline
    ops_applied: int = 0
    creates: int = 0
    deletes: int = 0
    skipped_no_space: int = 0
    bytes_written: int = 0
    #: Map from workload file id to live simulator inode, for experiments
    #: that need to find specific files afterwards (e.g. hot files).
    live_files: Dict[int, int] = field(default_factory=dict)
    #: True when a fault plan's crash point halted the replay early; the
    #: timeline then stops at the crash day and ``fs`` carries whatever
    #: damage the plan inflicted.  Never set on the no-fault path.
    crashed: bool = False
    #: The injector's damage summary when ``crashed`` (else ``None``).
    crash: Optional["CrashSummary"] = None


class AgingReplayer:
    """Replays a workload against one file system.

    The aggregate layout score is maintained *incrementally*: each
    create/append/delete updates per-inode (optimal, countable) pair
    counts, so the end-of-day sample is O(1) instead of a full-system
    rescan — the difference between minutes and seconds at the paper's
    scale.  ``tests/test_aging_replay.py`` checks the incremental score
    against a recomputation.
    """

    def __init__(
        self,
        fs: FileSystem,
        label: str = "aged",
        faults: "Optional[FaultInjector]" = None,
    ) -> None:
        self.fs = fs
        self.label = label
        #: Optional fault injector (:mod:`repro.faults`).  Every call
        #: into it is guarded by an ``is not None`` check so that the
        #: default path executes exactly the same statements as before
        #: fault injection existed.
        self._faults = faults
        # Event-log handle, captured once; None is the disabled path.
        self._e = obs.events_or_none()
        self._dir_for_cg: List[str] = []
        self._pairs: Dict[int, "tuple[int, int]"] = {}  # ino -> (opt, countable)
        self._optimal_total = 0
        self._countable_total = 0
        #: Inodes whose last growth hit ENOSPC part-way: their flushed
        #: frontier sits below the block list, so the realloc policy may
        #: relocate blocks the incremental append delta assumes frozen —
        #: the next update on such an inode rescans it in full.
        self._dirty_inos: Set[int] = set()
        #: Blocks walked by pair accounting, for regression budgets: the
        #: incremental path keeps this linear in blocks *written* where a
        #: full per-append rescan would be quadratic in file size.
        self.pair_scan_blocks = 0
        #: Regular files live when replay() started, so day samples can
        #: report the live-file count without walking the inode table.
        self._initial_files = 0
        self._frags_per_cg = fs.params.blocks_per_cg * fs.params.frags_per_block
        self._occupancy_buf: List[float] = []
        self._seed_directories()

    def _seed_directories(self) -> None:
        """Create one directory per cylinder group (Section 3.2)."""
        ncg = self.fs.params.ncg
        for i in range(ncg):
            name = f"cg{i:03d}"
            directory = self.fs.make_directory(name)
            self._dir_for_cg.append(directory.name)
        groups = {self.fs.directories[n].cg for n in self._dir_for_cg}
        if len(groups) != ncg:
            raise SimulationError(
                "dirpref failed to spread the seed directories across "
                f"all {ncg} cylinder groups (got {len(groups)})"
            )
        # Index directories by the group they actually landed in.
        by_cg = {self.fs.directories[n].cg: n for n in self._dir_for_cg}
        self._dir_for_cg = [by_cg[i] for i in range(ncg)]

    def target_directory(self, src_ino: int) -> str:
        """Seed directory for a file with source inode ``src_ino``.

        The source and replay file systems have the same geometry in the
        paper; if a workload from a different-sized source is replayed,
        groups are folded modulo the replay group count.
        """
        src_cg = src_ino // self.fs.params.inodes_per_cg
        return self._dir_for_cg[src_cg % self.fs.params.ncg]

    def replay(
        self, workload: Workload, sample_days: bool = True
    ) -> ReplayResult:
        """Apply every operation; returns the result with daily samples.

        The loop iterates the workload's columns in precomputed day
        slices.  Golden digests in ``tests/test_aging_columnar.py`` pin
        every observable it produces.

        With telemetry enabled each simulated day becomes one span
        (simulated clock in days, attrs carrying that day's op/ENOSPC
        tallies) and the run's totals land in process-wide counters.
        """
        result = ReplayResult(fs=self.fs, timeline=Timeline(label=self.label))
        self._initial_files = len(self.fs.files())
        tr = obs.tracer_or_none()
        day_span = (
            tr.begin("replay.day", sim=0, label=self.label, day=0)
            if tr is not None
            else None
        )
        day_start_ops = day_start_skips = 0
        current_day = 0
        fault_day = 0
        # Hot-loop locals: every attribute below is read once per op.
        fs = self.fs
        faults = self._faults
        ops = workload.op
        times = workload.time
        file_ids = workload.file_id
        sizes = workload.size
        src_inos = workload.src_ino
        live = result.live_files
        try:
            for day, (lo, hi) in enumerate(workload.day_slices):
                if lo == hi:
                    continue  # empty day: sampled by a later catch-up
                if faults is not None and day != fault_day:
                    fault_day = day
                    faults.begin_day(day)
                while sample_days and day > current_day:
                    self._sample(result, current_day)
                    if tr is not None:
                        tr.end(
                            day_span,
                            sim=current_day + 1,
                            ops=result.ops_applied - day_start_ops,
                            enospc=result.skipped_no_space - day_start_skips,
                            layout_score=round(self.current_layout_score(), 4),
                        )
                        day_start_ops = result.ops_applied
                        day_start_skips = result.skipped_no_space
                        day_span = tr.begin(
                            "replay.day",
                            sim=current_day + 1,
                            label=self.label,
                            day=current_day + 1,
                        )
                    current_day += 1
                for i in range(lo, hi):
                    code = ops[i]
                    if code == 0:  # create
                        directory = self.target_directory(src_inos[i])
                        if faults is not None:
                            faults.before_op(fs, "create", None)
                        size = sizes[i]
                        try:
                            ino = fs.create_file(directory, size, when=times[i])
                        except OutOfSpaceError:
                            result.skipped_no_space += 1
                            continue
                        self._track_pairs(ino)
                        live[file_ids[i]] = ino
                        result.creates += 1
                        result.bytes_written += size
                        op_kind = "create"
                    elif code == 1:  # append
                        ino = live.get(file_ids[i])
                        if ino is None:
                            continue  # its create was skipped for space
                        if faults is not None:
                            faults.before_op(fs, "append", ino)
                        size = sizes[i]
                        try:
                            self._append_tracked(ino, size, times[i])
                        except OutOfSpaceError:
                            result.skipped_no_space += 1
                            continue
                        result.bytes_written += size
                        op_kind = "append"
                    else:  # delete
                        ino = live.pop(file_ids[i], None)
                        if ino is None:
                            continue  # its create was skipped for space
                        if faults is not None:
                            faults.before_op(fs, "delete", ino)
                        fs.delete_file(ino, when=times[i])
                        self._untrack_pairs(ino)
                        result.deletes += 1
                        op_kind = "delete"
                    result.ops_applied += 1
                    if faults is not None:
                        # ENOSPC-skipped ops never reach here: they are
                        # not buffered and cannot be crash candidates.
                        faults.after_op(fs, op_kind, ino)
        except FaultInjectionError as exc:
            # The plan's crash point fired: return the partial result.
            # The timeline deliberately gets no sample for the crash day
            # (the machine went down before the end-of-day snapshot).
            result.crashed = True
            result.crash = getattr(exc, "summary", None)
        if sample_days and not result.crashed:
            self._sample(result, current_day)
        if tr is not None and day_span is not None:
            attrs: Dict[str, object] = {
                "ops": result.ops_applied - day_start_ops,
                "enospc": result.skipped_no_space - day_start_skips,
                "layout_score": round(self.current_layout_score(), 4),
            }
            if result.crashed:
                attrs["crashed"] = True
            tr.end(day_span, sim=current_day + 1, **attrs)
        m = obs.metrics_or_none()
        if m is not None and not result.crashed:
            m.counter("replay.ops").inc(result.ops_applied)
            m.counter("replay.creates").inc(result.creates)
            m.counter("replay.deletes").inc(result.deletes)
            m.counter("replay.enospc_skips").inc(result.skipped_no_space)
            m.counter("replay.bytes_written").inc(result.bytes_written)
            m.gauge(f"replay.{self.label}.final_score").set(
                self.current_layout_score()
            )
        return result

    def _sample(self, result: ReplayResult, day: int) -> None:
        # The replayer's own live map tracks every create/delete it
        # applies, so the live-file count is bookkeeping — not a walk
        # over the whole inode table every sampled day.
        sample = DailySample(
            day=day,
            layout_score=self.current_layout_score(),
            utilization=self.fs.utilization(),
            live_files=self._initial_files + len(result.live_files),
            ops_applied=result.ops_applied,
        )
        result.timeline.add(sample)
        if self._e is not None:
            # One typed event per simulated day: exactly the timeline's
            # sample (same objects, so the scores match to the bit) plus
            # the free-space and per-CG occupancy summary the timeline
            # does not carry.
            self._e.emit(
                obs_events.DAY_SAMPLE,
                label=self.label,
                day=sample.day,
                layout_score=sample.layout_score,
                utilization=sample.utilization,
                live_files=sample.live_files,
                ops_applied=sample.ops_applied,
                **self._fs_health(),
            )

    def _fs_health(self) -> Dict[str, object]:
        """Free-space fragmentation + per-CG occupancy for day samples.

        Only computed when the event log is active: it walks every
        group's free runs, which would be wasted work on the default
        path.
        """
        from repro.analysis.freespace import free_space_stats

        stats = free_space_stats(self.fs)
        frags_per_cg = self._frags_per_cg
        per_cg = [
            round(1.0 - cg.free_frags / frags_per_cg, 4)
            for cg in self.fs.sb.cgs
        ]
        # Sort into one reusable buffer: the per-day vectors above must
        # be fresh lists (they are stored in the emitted event), but the
        # decile scratch space does not escape this method.
        occupancy = self._occupancy_buf
        occupancy[:] = per_cg
        occupancy.sort()
        n = len(occupancy)
        deciles = [
            round(occupancy[min(n - 1, round(i * (n - 1) / 10))], 4)
            for i in range(11)
        ]
        # Per-CG free-space fragmentation: how little of a group's free
        # space its largest run covers (0 = one contiguous run, →1 =
        # shattered).  A fully occupied group has nothing to fragment.
        frag = []
        for cg in self.fs.sb.cgs:
            free = cg.free_blocks
            if free == 0:
                frag.append(0.0)
                continue
            frag.append(round(1.0 - cg.max_free_run() / free, 4))
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

    # ------------------------------------------------------------------
    # Incremental layout accounting
    # ------------------------------------------------------------------

    def current_layout_score(self) -> float:
        """Aggregate layout score from the incremental counters."""
        if self._countable_total == 0:
            return 1.0
        return self._optimal_total / self._countable_total

    def _track_pairs(self, ino: int) -> None:
        self._untrack_pairs(ino)
        inode = self.fs.inode(ino)
        block_list = inode.data_block_list()
        optimal, countable = optimal_pairs(block_list)
        self.pair_scan_blocks += len(block_list)
        self._pairs[ino] = (optimal, countable)
        self._optimal_total += optimal
        self._countable_total += countable

    def _untrack_pairs(self, ino: int) -> None:
        optimal, countable = self._pairs.pop(ino, (0, 0))
        self._optimal_total -= optimal
        self._countable_total -= countable

    def _append_tracked(self, ino: int, nbytes: int, when: float) -> None:
        """Append to ``ino`` and delta-update its pair counts.

        On a clean inode the flushed frontier equals the block-list
        length, so the realloc policy can only relocate blocks at or
        beyond the pre-append last full block — every pair below that
        position is frozen and the delta is computed from the short
        changed suffix alone, keeping pair accounting linear in blocks
        *written* instead of quadratic in file growth.  An ENOSPC
        partial growth leaves the frontier behind the block list (a
        later window may relocate earlier blocks), so the inode goes in
        the dirty set and its next update rescans in full.
        """
        inode = self.fs.inode(ino)
        dirty = ino in self._dirty_inos
        old_blocks = inode.blocks
        old_nb = len(old_blocks)
        old_last = old_blocks[-1] if old_nb else -1
        old_tail = inode.tail
        try:
            self.fs.append(ino, nbytes, when=when)
        except OutOfSpaceError:
            self._dirty_inos.add(ino)
            self._track_pairs(ino)  # partial growth still counts
            raise
        if dirty:
            self._dirty_inos.discard(ino)
            self._track_pairs(ino)
            return
        # Old pairs at or beyond the cut position: at most the one pair
        # between the last full block and the fragment tail.
        cut = old_nb - 1 if old_nb else 0
        old_opt = old_cnt = 0
        if old_nb and old_tail is not None:
            old_cnt = 1
            if old_tail[0] == old_last + 1:
                old_opt = 1
        suffix = inode.blocks[cut:]
        if inode.tail is not None:
            suffix.append(inode.tail[0])
        new_opt, new_cnt = optimal_pairs(suffix)
        self.pair_scan_blocks += len(suffix)
        prev_opt, prev_cnt = self._pairs.get(ino, (0, 0))
        self._pairs[ino] = (
            prev_opt - old_opt + new_opt,
            prev_cnt - old_cnt + new_cnt,
        )
        self._optimal_total += new_opt - old_opt
        self._countable_total += new_cnt - old_cnt


def age_file_system(
    workload: Workload,
    params: Optional[FSParams] = None,
    policy: str = "ffs",
    label: Optional[str] = None,
    faults: "Optional[FaultInjector]" = None,
) -> ReplayResult:
    """Convenience: build a fresh file system and age it with ``workload``."""
    fs = FileSystem(params=params, policy=policy)
    replayer = AgingReplayer(
        fs, label=label if label is not None else policy, faults=faults
    )
    return replayer.replay(workload)
