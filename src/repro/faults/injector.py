"""The fault injector: crash points and buffered-write loss.

The simulator's metadata (inode block pointers, sizes, directory
entries) conceptually buffers above the disk model between flushes,
while allocation-map updates land synchronously — the same asymmetry
that made real FFS crashes interesting.  The injector models exactly
that: it records every operation since the last flush in a *dirty
buffer*, and when the plan's crash point fires it halts the replay and
decides, per buffered write, whether that write **made it**, was
**dropped** (the metadata update never reached the disk), or was
**torn** (only a prefix of a multi-block write landed).

The surviving file system carries precisely the damage classes
:mod:`repro.fsck` repairs:

* *orphaned blocks* — allocated in the maps, referenced by no inode
  (a dropped create/append whose allocations were already durable);
* *doubly-allocated fragments* — two inodes claiming the same space
  (a dropped delete resurrecting an inode whose blocks were reused);
* *truncated files* — an inode whose recorded size exceeds the blocks
  that actually reached the disk (a torn append);
* *dead directory entries* and *orphaned inodes* — a create whose
  inode write and directory write straddled the crash.

Every fate decision draws from ``rng.substream(plan.seed,
"faults.fates")`` in buffer order, so a plan's damage is a pure
function of the plan and the replayed workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import obs
from repro import rng
from repro.errors import CrashPointReached
from repro.faults.plan import FaultPlan
from repro.ffs.filesystem import FileSystem
from repro.ffs.inode import FragTail, Inode
from repro.obs import events as obs_events

#: Operation kinds the injector buffers (mirrors the workload ops).
OP_CREATE = "create"
OP_APPEND = "append"
OP_DELETE = "delete"


@dataclass(frozen=True)
class CrashSummary:
    """What the crash did, for reports and the chaos harness."""

    day: int
    block_write: int
    buffered_ops: int
    applied: int
    dropped: int
    torn: int

    def to_dict(self) -> Dict[str, int]:
        return {
            "day": self.day,
            "block_write": self.block_write,
            "buffered_ops": self.buffered_ops,
            "applied": self.applied,
            "dropped": self.dropped,
            "torn": self.torn,
        }


@dataclass
class _InodeSnapshot:
    """Pre-operation copy of the fields a lost write would roll back."""

    ino: int
    is_dir: bool
    size: int
    ctime: float
    mtime: float
    dir_cg: int
    alloc_cg: int
    blocks: List[int]
    tail: Optional[FragTail]
    indirect_blocks: List[int]

    @classmethod
    def of(cls, inode: Inode) -> "_InodeSnapshot":
        return cls(
            ino=inode.ino,
            is_dir=inode.is_dir,
            size=inode.size,
            ctime=inode.ctime,
            mtime=inode.mtime,
            dir_cg=inode.dir_cg,
            alloc_cg=inode.alloc_cg,
            blocks=list(inode.blocks),
            tail=inode.tail,
            indirect_blocks=list(inode.indirect_blocks),
        )

    def restore_onto(self, inode: Inode) -> None:
        inode.size = self.size
        inode.mtime = self.mtime
        inode.alloc_cg = self.alloc_cg
        inode.blocks = list(self.blocks)
        inode.tail = self.tail
        inode.indirect_blocks = list(self.indirect_blocks)

    def rebuild(self) -> Inode:
        return Inode(
            ino=self.ino,
            is_dir=self.is_dir,
            size=self.size,
            ctime=self.ctime,
            mtime=self.mtime,
            dir_cg=self.dir_cg,
            alloc_cg=self.alloc_cg,
            blocks=list(self.blocks),
            tail=self.tail,
            indirect_blocks=list(self.indirect_blocks),
        )


@dataclass
class _BufferedOp:
    """One operation in the dirty buffer (metadata not yet flushed)."""

    kind: str
    ino: int
    directory: str
    block_writes: int
    snapshot: Optional[_InodeSnapshot] = None
    blocks_added: List[int] = field(default_factory=list)


class FaultInjector:
    """Applies one :class:`~repro.faults.plan.FaultPlan` to one replay.

    The replayer calls :meth:`begin_day` at each day boundary and
    :meth:`before_op` / :meth:`after_op` around every workload
    operation; everything else is internal.  An injector is single-use:
    it accumulates state for exactly one replay.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._fates = rng.substream(plan.seed, "faults.fates")
        self._e = obs.events_or_none()
        self._day = 0
        self._armed = plan.crash is not None and plan.crash.day <= 0
        self._writes_since_armed = 0
        self._buffer: List[_BufferedOp] = []
        self._ops_since_flush = 0
        self._pending: Optional[_InodeSnapshot] = None
        self._pending_dir = ""

    # ------------------------------------------------------------------
    # Replayer hooks
    # ------------------------------------------------------------------

    def begin_day(self, day: int) -> None:
        """Advance the simulated day; arm the crash when its day starts."""
        self._day = day
        if self.plan.crash is not None and day >= self.plan.crash.day:
            self._armed = True

    def before_op(self, fs: FileSystem, kind: str, ino: Optional[int]) -> None:
        """Snapshot mutable state a lost write would need to roll back.

        Taken *before* the op because a delete destroys both the inode
        and its directory membership, and a dropped delete must be able
        to resurrect them exactly.
        """
        if ino is not None and ino in fs.inodes:
            self._pending = _InodeSnapshot.of(fs.inodes[ino])
            self._pending_dir = fs._dir_of_file.get(ino, "")
        else:
            self._pending = None
            self._pending_dir = ""

    def after_op(self, fs: FileSystem, kind: str, ino: int) -> None:
        """Buffer the completed op; fire the crash point when due.

        Raises :class:`CrashPointReached` the moment the armed crash
        point's write budget is exhausted — after applying the plan's
        buffered-write damage to ``fs``.
        """
        snapshot = self._pending
        self._pending = None
        record = self._record_op(fs, kind, ino, snapshot)
        self._buffer.append(record)
        if self._armed:
            self._writes_since_armed += record.block_writes
            crash = self.plan.crash
            if (
                crash is not None
                and self._writes_since_armed >= crash.after_block_writes
            ):
                summary = self._crash(fs)
                raise CrashPointReached(
                    f"injected crash on day {self._day} after block write "
                    f"{self._writes_since_armed} "
                    f"({summary.dropped} dropped, {summary.torn} torn of "
                    f"{summary.buffered_ops} buffered)",
                    summary,
                )
        self._ops_since_flush += 1
        if self._ops_since_flush >= self.plan.flush_interval_ops:
            self._buffer.clear()
            self._ops_since_flush = 0

    # ------------------------------------------------------------------
    # Buffering
    # ------------------------------------------------------------------

    def _record_op(
        self,
        fs: FileSystem,
        kind: str,
        ino: int,
        snapshot: Optional[_InodeSnapshot],
    ) -> _BufferedOp:
        if kind == OP_DELETE:
            return _BufferedOp(
                kind=kind,
                ino=ino,
                directory=self._pending_dir,
                block_writes=0,
                snapshot=snapshot,
            )
        directory = fs._dir_of_file.get(ino, "")
        inode = fs.inodes[ino]
        if kind == OP_CREATE:
            blocks_added = list(inode.blocks)
            indirects_added = len(inode.indirect_blocks)
            tail_writes = 1 if inode.tail is not None else 0
        else:
            old_blocks = snapshot.blocks if snapshot is not None else []
            blocks_added = inode.blocks[len(old_blocks):]
            old_indirects = (
                len(snapshot.indirect_blocks) if snapshot is not None else 0
            )
            indirects_added = len(inode.indirect_blocks) - old_indirects
            old_tail = snapshot.tail if snapshot is not None else None
            tail_writes = 1 if inode.tail != old_tail else 0
        return _BufferedOp(
            kind=kind,
            ino=ino,
            directory=directory,
            block_writes=len(blocks_added) + indirects_added + tail_writes,
            snapshot=snapshot,
            blocks_added=blocks_added,
        )

    # ------------------------------------------------------------------
    # The crash itself
    # ------------------------------------------------------------------

    def _crash(self, fs: FileSystem) -> CrashSummary:
        """Decide each buffered write's fate and mutate ``fs`` to match."""
        applied = dropped = torn = 0
        for op in reversed(self._buffer):
            fate = self._sample_fate(op)
            if fate == "applied":
                applied += 1
                continue
            if fate == "dropped":
                dropped += 1
                self._apply_drop(fs, op)
            else:
                torn += 1
                self._apply_tear(fs, op)
            self._emit(
                f"{fate}_write",
                op=op.kind,
                ino=op.ino,
                blocks=len(op.blocks_added),
            )
        summary = CrashSummary(
            day=self._day,
            block_write=self._writes_since_armed,
            buffered_ops=len(self._buffer),
            applied=applied,
            dropped=dropped,
            torn=torn,
        )
        self._emit("crash", **summary.to_dict())
        self._buffer.clear()
        # The rollbacks above rewrite block lists behind the write
        # pipeline's back.
        fs.recount_pairs()
        return summary

    def _sample_fate(self, op: _BufferedOp) -> str:
        draw = self._fates.random()
        if draw < self.plan.drop_prob:
            return "dropped"
        if draw < self.plan.drop_prob + self.plan.tear_prob:
            # Tearing needs at least two landed blocks to tear between;
            # otherwise the write degrades to wholly dropped.
            if op.kind != OP_DELETE and len(op.blocks_added) >= 2:
                return "torn"
            return "dropped"
        return "applied"

    def _apply_drop(self, fs: FileSystem, op: _BufferedOp) -> None:
        if op.kind == OP_CREATE:
            # Create straddles two metadata writes: the inode and the
            # directory entry.  Losing either half produces a different
            # damage class; pick one deterministically.
            lost_inode_write = self._fates.random() < 0.5
            directory = fs.directories.get(op.directory)
            if lost_inode_write:
                # Inode never landed: its blocks become orphans, and the
                # (durable) directory entry now points at a dead inode.
                fs.inodes.pop(op.ino, None)
                fs._dir_of_file.pop(op.ino, None)
            else:
                # Directory entry never landed: the inode survives but
                # belongs to no directory (fsck reattaches it).
                if directory is not None and op.ino in directory.children:
                    directory.remove(op.ino)
                fs._dir_of_file.pop(op.ino, None)
        elif op.kind == OP_APPEND:
            inode = fs.inodes.get(op.ino)
            if inode is not None and op.snapshot is not None:
                # The grown block pointers never landed; the allocations
                # (and any freed-tail reuse) stay in the durable maps.
                op.snapshot.restore_onto(inode)
        else:  # delete: the inode/directory updates never landed
            if op.snapshot is not None and op.ino not in fs.inodes:
                fs.inodes[op.ino] = op.snapshot.rebuild()
                directory = fs.directories.get(op.directory)
                if directory is not None and op.ino not in directory.children:
                    directory.add(op.ino)
                if op.directory:
                    fs._dir_of_file[op.ino] = op.directory

    def _apply_tear(self, fs: FileSystem, op: _BufferedOp) -> None:
        inode = fs.inodes.get(op.ino)
        if inode is None:
            return
        keep = self._fates.randrange(1, len(op.blocks_added))
        if op.kind == OP_CREATE:
            # Only the first ``keep`` block pointers landed; the size
            # field (written with the inode) still claims the full file.
            inode.blocks = op.blocks_added[:keep]
            inode.tail = None
        elif op.snapshot is not None:
            # The size and tail updates landed but a suffix of the new
            # block pointers did not, so the file reads as longer than
            # the blocks that actually reached the disk.
            inode.blocks = list(op.snapshot.blocks) + op.blocks_added[:keep]

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    def _emit(self, kind: str, **fields: object) -> None:
        if self._e is not None:
            fields.setdefault("day", self._day)
            self._e.emit(obs_events.FAULT_INJECTED, kind=kind, **fields)
