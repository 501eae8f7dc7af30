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

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, List, NamedTuple, Set, TextIO, Tuple

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

#: A workload row as a plain tuple (see ``WorkloadRow``).
_Row = Tuple[float, int, int, int, int, str]

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
    ``(time, file_id, code)`` leads.  Rows skip the record's per-object
    checks; :meth:`Workload.from_rows` runs the same checks over the
    columns it builds.
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

    ``Workload(records)`` takes validated records; the aging pipeline
    builds its workloads with :meth:`from_rows` instead, which makes no
    object per op.  Both sort by (time, file id, op rank) and check
    every op as ``WorkloadRecord`` does.
    """

    def __init__(self, records: Iterable[WorkloadRecord] = ()):
        self._fill(
            (r.time, r.file_id, OP_CODES[r.op], r.size, r.src_ino, r.directory)
            for r in records
        )

    @classmethod
    def from_rows(cls, rows: Iterable[WorkloadRow]) -> "Workload":
        """Build a workload from pipeline rows, in any order."""
        workload = cls.__new__(cls)
        workload._fill(rows)
        return workload

    def _fill(self, rows: Iterable[_Row]) -> None:
        """Sort ``rows``, check them as ``WorkloadRecord`` would, and
        set the columns."""
        out = sorted(rows, key=_ROW_ORDER)
        n = len(out)
        time, file_id, op, size, src_ino, directory = (
            tuple(zip(*out)) or ((),) * 6
        )
        _check_columns(op, time, size)
        self.op = bytes(op)
        self.time = array("d", time)
        self.file_id = array("q", file_id)
        self.size = array("q", size)
        self.src_ino = array("q", src_ino)
        self.dir_table: Tuple[str, ...] = tuple(dict.fromkeys(directory))
        dir_index = {name: i for i, name in enumerate(self.dir_table)}
        self.dir_id = array("l", map(dir_index.__getitem__, directory))
        slices: List[Tuple[int, int]] = []
        start = 0
        for day in range(1, int(time[-1]) + 1 if n else 0):
            end = bisect_left(self.time, day)
            slices.append((start, end))
            start = end
        if n:
            slices.append((start, n))
        self.day_slices: Tuple[Tuple[int, int], ...] = tuple(slices)

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


def _check_columns(
    op: Tuple[int, ...], time: Tuple[float, ...], size: Tuple[int, ...]
) -> None:
    """The checks of ``WorkloadRecord.__post_init__``, over columns."""
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
    if time and min(time) < 0:
        raise WorkloadError(f"negative time {min(time)}")
