"""Workload records: the unit of file-system aging.

A workload is an ordered list of create/delete operations.  Each record
carries the *source* inode number of the file, because that is how the
paper's replayer decides which cylinder group the file belongs in
(Section 3.2): "we used each file's inode number to compute the cylinder
group to which it was allocated on the original file system".

Workloads serialize to a simple line-oriented text format so they can be
generated once and replayed from the CLI, mirroring the paper's
downloadable workload file; a dumped file replays exactly like the
workload it came from.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from itertools import chain
from typing import (
    Dict, Iterable, Iterator, List, NamedTuple, Optional, Set, TextIO, Tuple,
)

from repro.errors import WorkloadError

CREATE = "create"
APPEND = "append"
DELETE = "delete"

#: Byte codes of the op column; also the op rank that orders ops tying
#: on (time, file id): create before append before delete.
CREATE_CODE, APPEND_CODE, DELETE_CODE = 0, 1, 2
OP_CODES = {CREATE: CREATE_CODE, APPEND: APPEND_CODE, DELETE: DELETE_CODE}

#: Op names indexed by byte code (the inverse of ``OP_CODES``).
_OP_NAMES = (CREATE, APPEND, DELETE)

#: Op times are fractional days in ``[0, HORIZON_DAYS)``: ten years of
#: nightly snapshots, a dozen times the paper's 300 days.  A workload
#: carries one day slice (and a replay takes one layout sample) per day
#: up to its last op, so an unbounded time is an unbounded build.
HORIZON_DAYS = 3650

#: A workload row as a plain tuple: the fields of ``WorkloadRow``.
Row = Tuple[float, int, int, int, int, str]

#: Sort key of a workload row: (time, file id, op code).  The sort is
#: stable, so rows tying on all three keep their input order.
_ROW_ORDER = itemgetter(0, 1, 2)


@dataclass(frozen=True)
class WorkloadRecord:
    """One file operation in an aging workload.

    Large files on a live file system are not written in one atomic
    burst: the NFS clients behind the paper's traces wrote them in many
    requests interleaved with other activity, which is a major source of
    fragmentation under the original allocator.  The ground-truth
    workload therefore represents a large file as one ``create`` (first
    chunk) followed by ``append`` records; a reconstruction from nightly
    snapshots cannot see that structure and emits a single full-size
    ``create`` — one of the approximations responsible for the gap
    between the "Real" and "Simulated" curves of Figure 1.
    """

    #: Operation time in fractional days from the start of the workload.
    time: float
    #: ``"create"``, ``"append"``, or ``"delete"``.
    op: str
    #: Identity of the file across its lifetime (create/delete pair).
    file_id: int
    #: Bytes written (creates/appends; 0 for deletes).
    size: int
    #: Inode number the file had on the source file system.
    src_ino: int
    #: Directory name on the source file system (used when folding
    #: short-lived trace files into busy directories).
    directory: str

    def __post_init__(self) -> None:
        if self.op not in (CREATE, APPEND, DELETE):
            raise WorkloadError(f"unknown op {self.op!r}")
        if self.op in (CREATE, APPEND) and self.size < 0:
            raise WorkloadError(f"{self.op} with negative size {self.size}")
        if self.op == APPEND and self.size == 0:
            raise WorkloadError("append of zero bytes")
        if self.time < 0:
            raise WorkloadError(f"negative time {self.time}")

    def to_line(self) -> str:
        """Serialize to one text line.

        The time is written with ``repr`` so it parses back to the same
        float: rounding would reorder nearby ops on reload.
        """
        return (
            f"{self.time!r} {self.op} {self.file_id} {self.size} "
            f"{self.src_ino} {self.directory}"
        )

    @classmethod
    def from_line(cls, line: str) -> "WorkloadRecord":
        """Parse a record from :meth:`to_line` output."""
        parts = line.split()
        if len(parts) != 6:
            raise WorkloadError(f"malformed workload line: {line!r}")
        return cls(
            time=float(parts[0]),
            op=parts[1],
            file_id=int(parts[2]),
            size=int(parts[3]),
            src_ino=int(parts[4]),
            directory=parts[5],
        )


class WorkloadRow(NamedTuple):
    """One file operation as the aging pipeline emits it.

    The fields of a :class:`WorkloadRecord` as a plain tuple, with the
    op as its byte code (``OP_CODES``) and the fields ordered so that
    ``(time, file_id, code)`` leads; the build passes them as bare
    ``Row`` tuples.  Rows skip the record's per-object checks;
    :class:`WorkloadBuilder` runs the same checks over each batch.
    """

    time: float
    file_id: int
    code: int
    size: int
    src_ino: int
    directory: str

    @property
    def op(self) -> str:
        """The op name, as in :attr:`WorkloadRecord.op`."""
        return _OP_NAMES[self.code]


class Workload:
    """An ordered aging workload, held as parallel columns.

    The columns hold one op per index — a byte code (``OP_CODES``), the
    fractional-day time, the file id, the byte count, and the source
    inode — so the replay hot loop indexes flat arrays instead of
    touching a ``WorkloadRecord`` object per op.  The source directory
    is dictionary-encoded: ``dir_table[dir_id[i]]`` is op ``i``'s
    directory.  ``day_slices`` is the precomputed day index: entry ``d``
    is the half-open op range whose ``int(time)`` equals ``d``, so the
    day loop iterates contiguous slices instead of testing the day of
    every op.  Iterating a workload rebuilds its records.

    ``Workload(records)`` takes validated records and
    :meth:`from_rows` takes rows, which need no object per op; each is
    one batch into a :class:`WorkloadBuilder`, which the aging build
    feeds a day at a time.  All sort by (time, file id, op rank) and
    check every op as ``WorkloadRecord`` does.
    """

    op: bytes
    time: "array[float]"
    file_id: "array[int]"
    size: "array[int]"
    src_ino: "array[int]"
    dir_id: "array[int]"
    dir_table: Tuple[str, ...]
    day_slices: Tuple[Tuple[int, int], ...]

    def __init__(self, records: Iterable[WorkloadRecord] = ()):
        builder = WorkloadBuilder()
        builder.add(
            (r.time, r.file_id, OP_CODES[r.op], r.size, r.src_ino, r.directory)
            for r in records
        )
        builder.finish(self)

    @classmethod
    def from_rows(cls, rows: Iterable[Row]) -> "Workload":
        """Build a workload from pipeline rows, in any order."""
        builder = WorkloadBuilder()
        builder.add(rows)
        return builder.finish()

    def __len__(self) -> int:
        return len(self.op)

    def __iter__(self) -> Iterator[WorkloadRecord]:
        dirs = self.dir_table
        for o, t, f, s, i, d in zip(
            self.op, self.time, self.file_id, self.size, self.src_ino,
            self.dir_id,
        ):
            yield WorkloadRecord(
                time=t, op=_OP_NAMES[o], file_id=f, size=s, src_ino=i,
                directory=dirs[d],
            )

    def days(self) -> int:
        """Number of whole days the workload spans."""
        return len(self.day_slices)

    def bytes_written(self) -> int:
        """Total bytes written by creates and appends (paper: 48.6 GB)."""
        delete = OP_CODES[DELETE]
        return sum(s for o, s in zip(self.op, self.size) if o != delete)

    def validate(self) -> None:
        """Check orderings and create/append/delete pairing.

        Appends and deletes must refer to a previously created (and not
        yet deleted) file id; no file id is created twice while live.
        """
        create, append = OP_CODES[CREATE], OP_CODES[APPEND]
        live: Set[int] = set()
        last_time = 0.0
        for code, time, file_id in zip(self.op, self.time, self.file_id):
            if time < last_time:
                raise WorkloadError("records are not time-ordered")
            last_time = time
            if code == create:
                if file_id in live:
                    raise WorkloadError(
                        f"file {file_id} created while already live"
                    )
                live.add(file_id)
            elif code == append:
                if file_id not in live:
                    raise WorkloadError(
                        f"file {file_id} appended while not live"
                    )
            else:
                if file_id not in live:
                    raise WorkloadError(
                        f"file {file_id} deleted while not live"
                    )
                live.remove(file_id)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def dump(self, fp: TextIO) -> None:
        """Write the workload in text form."""
        for record in self:
            fp.write(record.to_line() + "\n")

    @classmethod
    def load(cls, fp: TextIO) -> "Workload":
        """Read a workload written by :meth:`dump`.

        Files written with fixed six-decimal times (the format before
        times were written exactly) load too.
        """
        return cls(
            WorkloadRecord.from_line(line)
            for line in fp
            if line.strip() and not line.startswith("#")
        )


class WorkloadBuilder:
    """Workload columns grown one batch of rows at a time.

    :meth:`add` sorts a batch by (time, file id, op code), checks it as
    ``WorkloadRecord`` would, and appends its rows timed before
    ``through``; the rest lead the next batch.  So batches with no row
    before an earlier batch's ``through`` (others are refused) build
    the columns of one stable sort of all their rows.
    """

    def __init__(self) -> None:
        self._op = bytearray()
        self._time = array("d")
        self._file_id = array("q")
        self._size = array("q")
        self._src_ino = array("q")
        self._dir_id = array("l")
        self._dir_index: Dict[str, int] = {}
        self._carry: List[Row] = []
        self._through = -math.inf

    def add(self, rows: Iterable[Row], through: float = math.inf) -> None:
        """Append the rows of ``rows`` and the carry timed before
        ``through``, in order; carry the others."""
        batch = sorted(chain(self._carry, rows), key=_ROW_ORDER)
        time, file_id, op, size, src_ino, directory = (
            tuple(zip(*batch)) or ((),) * 6
        )
        _check_columns(op, time, size)
        if time and time[0] < self._through:
            raise WorkloadError(
                f"time {time[0]!r} comes before {self._through!r}, "
                f"the bound of an earlier batch"
            )
        cut = bisect_left(time, through)
        self._carry = batch[cut:]
        self._through = max(self._through, through)
        self._op.extend(op[:cut])
        self._time.extend(time[:cut])
        self._file_id.extend(file_id[:cut])
        self._size.extend(size[:cut])
        self._src_ino.extend(src_ino[:cut])
        index = self._dir_index
        for name in dict.fromkeys(directory[:cut]):
            index.setdefault(name, len(index))
        self._dir_id.extend(map(index.__getitem__, directory[:cut]))

    def finish(self, workload: Optional[Workload] = None) -> Workload:
        """Append the carry and set the columns on ``workload`` (a new
        one by default)."""
        self.add(())
        if workload is None:
            workload = Workload.__new__(Workload)
        time = self._time
        workload.op = bytes(self._op)
        workload.time = time
        workload.file_id = self._file_id
        workload.size = self._size
        workload.src_ino = self._src_ino
        workload.dir_table = tuple(self._dir_index)
        workload.dir_id = self._dir_id
        # Day d's ops end where day d + 1's begin, and the last day's at n.
        n = len(time)
        last_day = int(time[-1]) if n else -1
        ends = [bisect_left(time, day) for day in range(1, last_day + 1)]
        ends += [n] if n else []
        workload.day_slices = tuple(zip([0] + ends, ends))
        return workload


def _check_columns(
    op: Tuple[int, ...], time: Tuple[float, ...], size: Tuple[int, ...]
) -> None:
    """The checks of ``WorkloadRecord.__post_init__``, over columns,
    plus the time horizon: every time is finite and below
    ``HORIZON_DAYS``."""
    unknown = set(op).difference(OP_CODES.values())
    if unknown:
        raise WorkloadError(f"unknown op code {min(unknown, key=repr)!r}")
    for code, nbytes in zip(op, size):
        if nbytes <= 0 and code != DELETE_CODE:
            if nbytes < 0:
                raise WorkloadError(
                    f"{_OP_NAMES[code]} with negative size {nbytes}"
                )
            if code == APPEND_CODE:
                raise WorkloadError("append of zero bytes")
    if not time:
        return
    if min(time) < 0:
        raise WorkloadError(f"negative time {min(time)}")
    # A nan compares false, so min and max can step over it; a sum cannot.
    if not max(time) < HORIZON_DAYS or math.isnan(sum(time)):
        bad = next(t for t in time if not t < HORIZON_DAYS)
        raise WorkloadError(
            f"time {bad!r} is not a finite day below the horizon "
            f"of {HORIZON_DAYS} days"
        )
