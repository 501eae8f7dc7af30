"""Bounded row logs: the event log, the disk trace, and their one JSONL format.

Metrics (:mod:`repro.obs.metrics`) answer "how much, in total"; spans
(:mod:`repro.obs.trace`) answer "where did the wall time go".  The row
logs keep the evidence itself, in order.  The :class:`EventLog` holds
typed events: the layout score at the end of every simulated day, each
allocator fallback, each cluster relocation, each cache hit/miss.  The
disk trace (:class:`repro.obs.disktrace.DiskTrace`) holds one row per
simulated disk request.  ``repro-ffs ... --events FILE`` and
``--disk-trace FILE`` write them as JSONL and ``repro-ffs report``
renders them without replaying months of simulated time.

Both are thin subclasses of one :class:`RowLog`, which owns every rule
the two streams share:

* **one bound** — past :attr:`RowLog.max_rows` stored rows, new rows are
  counted in :attr:`RowLog.dropped` instead of stored, so a chatty run
  degrades to a truncated log rather than unbounded memory;
* **one sequence** — every row carries a ``seq`` that keeps counting
  through drops, so order survives serialisation;
* **one adopt path** — :meth:`RowLog.adopt` grafts a worker process's
  ``(rows, dropped)`` into the parent log, renumbered into the parent's
  sequence, so the parent counts the worker's drops and a verbatim
  adoption writes what a serial log would have written;
* **one truncation rule** — when rows were dropped, the JSONL export
  ends with ``{"seq": <next seq>, "type": "log_truncated", "dropped": N}``;
* **one reader** — :func:`read_jsonl` parses events, spans and disk
  traces alike, and :func:`split_truncation` separates the marker.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Mapping, Optional, TextIO, Tuple

from repro import schemas

SCHEMA = schemas.EVENTS

#: One row per simulated aging day: layout score, utilization, and the
#: free-space / per-CG occupancy summary (the Figure 1/2 signal).
DAY_SAMPLE = "day_sample"
#: ``ffs_hashalloc`` left the preferred cylinder group (it was full).
ALLOC_FALLBACK = "alloc_fallback"
#: The realloc policy moved a fragmented window into a free cluster.
REALLOC_CLUSTER = "realloc_cluster"
#: Persistent artifact cache served an aged file system.
CACHE_HIT = "cache_hit"
#: Persistent artifact cache had no usable entry.
CACHE_MISS = "cache_miss"
#: One experiment began / finished (``wall_s`` on the end event).
EXPERIMENT_START = "experiment_start"
EXPERIMENT_END = "experiment_end"
#: A parallel worker's event batch was grafted into this log.
WORKER_MERGE = "worker_merge"
#: :mod:`repro.faults` injected one fault (``kind`` distinguishes a
#: ``crash``, ``dropped_write``, ``torn_write``, or ``latent_read_error``).
FAULT_INJECTED = "fault_injected"
#: Synthetic final row the JSONL export of any :class:`RowLog` appends
#: when the bound dropped rows (``dropped`` carries the count), so a
#: reader of the file alone can tell the log is incomplete.
LOG_TRUNCATED = "log_truncated"

EVENT_TYPES = frozenset({
    DAY_SAMPLE,
    ALLOC_FALLBACK,
    REALLOC_CLUSTER,
    CACHE_HIT,
    CACHE_MISS,
    EXPERIMENT_START,
    EXPERIMENT_END,
    WORKER_MERGE,
    FAULT_INJECTED,
    LOG_TRUNCATED,
})

__all__ = [
    "RowLog",
    "EventLog",
    "read_jsonl",
    "split_truncation",
    "EVENT_TYPES",
    "SCHEMA",
    "DAY_SAMPLE",
    "ALLOC_FALLBACK",
    "REALLOC_CLUSTER",
    "CACHE_HIT",
    "CACHE_MISS",
    "EXPERIMENT_START",
    "EXPERIMENT_END",
    "WORKER_MERGE",
    "FAULT_INJECTED",
    "LOG_TRUNCATED",
]


Row = Dict[str, object]


class RowLog:
    """A bounded, append-only log of JSON rows numbered by ``seq``."""

    #: Bound used when the constructor is given none.
    DEFAULT_MAX_ROWS = 200_000

    def __init__(self, max_rows: Optional[int] = None) -> None:
        if max_rows is None:
            max_rows = self.DEFAULT_MAX_ROWS
        if max_rows < 1:
            raise ValueError("max_rows must be positive")
        self.max_rows = max_rows
        self._rows: List[Row] = []
        self._seq = 0
        #: Rows discarded because the log was full.
        self.dropped = 0

    def append(self, row: Mapping[str, object]) -> Optional[Row]:
        """Store a copy of ``row`` under this log's next ``seq``;
        returns the stored row, or None when the log is full and the
        row was dropped."""
        self._seq += 1
        if len(self._rows) >= self.max_rows:
            self.dropped += 1
            return None
        stored: Row = {**row, "seq": self._seq}
        self._rows.append(stored)
        return stored

    def __len__(self) -> int:
        return len(self._rows)

    def rows(self) -> List[Row]:
        """All stored rows, in order (a shallow copy)."""
        return list(self._rows)

    def adopt(
        self, rows: Iterable[Row], dropped: int = 0, **stamp: object
    ) -> int:
        """Graft another log's ``rows()`` and ``dropped`` into this one.

        Rows are appended in order and renumbered into this log's
        sequence; ``stamp`` fields (e.g. an ``origin`` tag) are set on
        every adopted row.  The other log's ``dropped`` rows came after
        its stored ones, so they take the next sequence numbers and join
        this log's drop count.  Rows past this log's bound count as
        dropped, like local appends.  Returns the number of rows stored.
        """
        if dropped < 0:
            raise ValueError("dropped count cannot be negative")
        stored = 0
        for row in rows:
            if self.append({**row, **stamp}) is not None:
                stored += 1
        self._seq += dropped
        self.dropped += dropped
        return stored

    def write_jsonl(self, fp: TextIO) -> int:
        """Write one compact JSON object per row; returns the count.

        When rows were dropped, a final :data:`LOG_TRUNCATED` row with
        the next ``seq`` and the drop count is appended so a reader of
        the file alone can tell rows went missing.  The marker is not
        counted in the return value.
        """
        from repro.obs.export import write_jsonl

        count = write_jsonl(fp, self._rows)
        if self.dropped:
            write_jsonl(
                fp,
                [{"seq": self._seq + 1, "type": LOG_TRUNCATED,
                  "dropped": self.dropped}],
            )
        return count


class EventLog(RowLog):
    """A bounded, append-only log of typed telemetry events."""

    def emit(self, type: str, **fields: object) -> Optional[Row]:
        """Append one typed event; returns the stored row (or None when
        the log is full and the event was dropped).

        ``type`` must be one of :data:`EVENT_TYPES` — a typo'd event
        name is a bug at the instrumentation site, not a new category.
        """
        if type not in EVENT_TYPES:
            raise ValueError(
                f"unknown event type {type!r}; choose from {sorted(EVENT_TYPES)}"
            )
        return self.append({"type": type, **fields})

    def by_type(self, type: str) -> List[Row]:
        """The stored rows of one event type, in order."""
        return [row for row in self._rows if row.get("type") == type]


def read_jsonl(fp: TextIO) -> List[Row]:
    """Parse a JSONL file of rows (events, spans or a disk trace).

    Blank lines are skipped.  A line that is not a JSON object raises
    :class:`ValueError` naming its line number, so the CLI can refuse a
    hostile file with one line instead of a traceback.
    """
    rows: List[Row] = []
    for number, line in enumerate(fp, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {number}: invalid JSON ({exc})") from None
        if not isinstance(row, dict):
            raise ValueError(
                f"line {number}: expected a JSON object, "
                f"got {type(row).__name__}"
            )
        rows.append(row)
    return rows


def split_truncation(rows: Iterable[Row]) -> Tuple[List[Row], int]:
    """Separate :data:`LOG_TRUNCATED` markers from the real rows.

    Returns the marker-free rows and the total drop count the markers
    carry, so a table counts what happened and a note reports what did
    not survive.
    """
    real: List[Row] = []
    dropped = 0
    for row in rows:
        if row.get("type") == LOG_TRUNCATED:
            dropped += int(row.get("dropped", 0) or 0)
        else:
            real.append(row)
    return real, dropped
