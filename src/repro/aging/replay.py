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

Section 6 argues that the same workload format can age any file system,
so the loop itself lives in :class:`Replayer` and serves the LFS too
(:mod:`repro.lfs.replay`): a file system supplies only its placement
and, for the LFS, the cleaning it does in idle gaps.  Both file systems
keep the layout score's two integers (``optimal_pairs`` and
``countable_pairs``) current themselves, so a day's sample is O(1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Dict, Generic, List, Optional, Sequence, Tuple, TypeVar,
)

from repro import obs
from repro.aging.workload import Workload
from repro.analysis.freespace import cg_health
from repro.analysis.timeline import DailySample, Timeline
from repro.obs import events as obs_events
from repro.errors import CrashPointReached, OutOfSpaceError, SimulationError
from repro.ffs.filesystem import FileSystem
from repro.ffs.params import FSParams

if TYPE_CHECKING:  # imported lazily to keep repro.faults optional at runtime
    from repro.faults.injector import CrashSummary, FaultInjector
    from repro.ffs.directory import Directory
    from repro.lfs.filesystem import LogStructuredFS

#: The file systems a workload replays against.
F = TypeVar("F", "FileSystem", "LogStructuredFS")

#: Where creates go: op ``i`` creates its file in
#: ``table[keys[i] // div % mod]``.
Placement = Tuple[Sequence["Directory | str"], Sequence[int], int, int]


@dataclass
class ReplayResult(Generic[F]):
    """Outcome of one aging replay."""

    fs: F
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


class Replayer(Generic[F]):
    """The replay loop, for any file system that keeps its pair counts.

    A subclass supplies :meth:`_placement`; one that sets ``idle_gap``
    (fractional days) gets :meth:`_idle` called before every op that
    follows a quiet stretch at least that long; one that takes a fault
    injector forwards :meth:`_before_op` and :meth:`_after_op` to it.
    """

    #: Workload gap that counts as idle time; ``None`` never idles.
    idle_gap: Optional[float] = None

    def __init__(
        self,
        fs: F,
        label: str,
        faults: "Optional[FaultInjector]" = None,
    ) -> None:
        self.fs = fs
        self.label = label
        #: Optional fault injector (:mod:`repro.faults`).
        self._faults = faults
        #: Regular files live when replay() started, so day samples can
        #: report the live-file count without walking the inode table.
        self._initial_files = 0

    def _placement(self, workload: Workload) -> Placement:
        raise NotImplementedError

    def _idle(self) -> None:
        raise NotImplementedError

    def _before_op(self, kind: str, ino: Optional[int]) -> None:
        raise NotImplementedError

    def _after_op(self, kind: str, ino: int) -> None:
        raise NotImplementedError

    def replay(self, workload: Workload) -> ReplayResult[F]:
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
        gap = self.idle_gap
        ops = workload.op
        times = workload.time
        file_ids = workload.file_id
        sizes = workload.size
        live = result.live_files
        table, keys, div, mod = self._placement(workload)
        ino: Optional[int]
        try:
            for day, (lo, hi) in enumerate(workload.day_slices):
                if lo == hi:
                    continue  # empty day: sampled by a later catch-up
                # An idle gap before the day's first op is cleaned in
                # before the days it ends are sampled.
                if gap is not None and (
                    times[lo] - (times[lo - 1] if lo else 0.0) >= gap
                ):
                    self._idle()
                if faults is not None and day != fault_day:
                    fault_day = day
                    faults.begin_day(day)
                while day > current_day:
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
                    if gap is not None and i > lo and (
                        times[i] - times[i - 1] >= gap
                    ):
                        self._idle()
                    code = ops[i]
                    if code == 0:  # create
                        directory = table[keys[i] // div % mod]
                        if faults is not None:
                            self._before_op("create", None)
                        size = sizes[i]
                        try:
                            ino = fs.create_file(directory, size, when=times[i])
                        except OutOfSpaceError:
                            result.skipped_no_space += 1
                            continue
                        live[file_ids[i]] = ino
                        result.creates += 1
                        result.bytes_written += size
                        op_kind = "create"
                    elif code == 1:  # append
                        ino = live.get(file_ids[i])
                        if ino is None:
                            continue  # its create was skipped for space
                        if faults is not None:
                            self._before_op("append", ino)
                        size = sizes[i]
                        try:
                            fs.append(ino, size, when=times[i])
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
                            self._before_op("delete", ino)
                        fs.delete_file(ino, when=times[i])
                        result.deletes += 1
                        op_kind = "delete"
                    result.ops_applied += 1
                    if faults is not None:
                        # ENOSPC-skipped ops never reach here: they are
                        # not buffered and cannot be crash candidates.
                        self._after_op(op_kind, ino)
        except CrashPointReached as exc:
            # The plan's crash point fired: return the partial result.
            # The timeline deliberately gets no sample for the crash day
            # (the machine went down before the end-of-day snapshot).
            result.crashed = True
            result.crash = exc.summary
        if not result.crashed:
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

    def _sample(self, result: ReplayResult[F], day: int) -> DailySample:
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
        return sample

    def current_layout_score(self) -> float:
        """Aggregate layout score from the file system's pair counts."""
        countable = self.fs.countable_pairs
        if countable == 0:
            return 1.0
        return self.fs.optimal_pairs / countable


class AgingReplayer(Replayer[FileSystem]):
    """Replays a workload against one FFS, steering each create into
    its source cylinder group's seed directory."""

    def __init__(
        self,
        fs: FileSystem,
        label: str = "aged",
        faults: "Optional[FaultInjector]" = None,
    ) -> None:
        super().__init__(fs, label, faults)
        # Event-log handle, captured once; None is the disabled path.
        self._e = obs.events_or_none()
        self._dir_for_cg = self._seed_directories()

    def _seed_directories(self) -> List[str]:
        """Create one directory per cylinder group (Section 3.2); returns
        their names indexed by the group each actually landed in."""
        ncg = self.fs.params.ncg
        by_cg: Dict[int, str] = {}
        for i in range(ncg):
            directory = self.fs.make_directory(f"cg{i:03d}")
            by_cg[directory.cg] = directory.name
        if len(by_cg) != ncg:
            raise SimulationError(
                "dirpref failed to spread the seed directories across "
                f"all {ncg} cylinder groups (got {len(by_cg)})"
            )
        return [by_cg[i] for i in range(ncg)]

    def target_directory(self, src_ino: int) -> str:
        """Seed directory for a file with source inode ``src_ino``.

        The source and replay file systems have the same geometry in the
        paper; if a workload from a different-sized source is replayed,
        groups are folded modulo the replay group count.
        """
        src_cg = src_ino // self.fs.params.inodes_per_cg
        return self._dir_for_cg[src_cg % self.fs.params.ncg]

    def _placement(self, workload: Workload) -> Placement:
        # ``target_directory`` as one index into prebuilt directories.
        fs = self.fs
        dirs = [fs.directories[name] for name in self._dir_for_cg]
        return dirs, workload.src_ino, fs.params.inodes_per_cg, fs.params.ncg

    def _before_op(self, kind: str, ino: Optional[int]) -> None:
        if self._faults is not None:
            self._faults.before_op(self.fs, kind, ino)

    def _after_op(self, kind: str, ino: int) -> None:
        if self._faults is not None:
            self._faults.after_op(self.fs, kind, ino)

    def _sample(self, result: ReplayResult[FileSystem], day: int) -> DailySample:
        sample = super()._sample(result, day)
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
                **cg_health(self.fs),
            )
        return sample


def age_file_system(
    workload: Workload,
    params: Optional[FSParams] = None,
    policy: str = "ffs",
    label: Optional[str] = None,
    faults: "Optional[FaultInjector]" = None,
) -> ReplayResult[FileSystem]:
    """Convenience: build a fresh file system and age it with ``workload``."""
    fs = FileSystem(params=params, policy=policy)
    replayer = AgingReplayer(
        fs, label=label if label is not None else policy, faults=faults
    )
    return replayer.replay(workload)
