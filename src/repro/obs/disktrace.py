"""Per-request disk I/O tracing: the anatomy of every simulated access.

Metrics summarise the disk model's behaviour (total seeks, total
rotational wait); the **disk trace** keeps the per-request evidence the
paper's argument actually rests on: where each request landed on the
platter, how far the head travelled to serve it, and how its service
time splits into seek, rotation, and transfer.  That is exactly the
input a disk-scheduler study (SSTF/SCAN vs. FCFS) or a defragmentation
trigger needs — seek-distance distributions and inter-request locality
— and none of it is recoverable from aggregate counters.

One :class:`DiskTrace` collects typed rows for one telemetry session
(schema ``repro.obs.disktrace/v2``); ``repro-ffs ... --disk-trace FILE``
writes them as JSONL and ``repro-ffs report --disk-trace FILE`` renders
seek-distance and inter-request-distance histograms from them.  The
trace is a :class:`repro.obs.events.RowLog`, so the bound, the ``seq``
numbering, cross-process adoption, the ``log_truncated`` marker row and
the reader (:func:`repro.obs.events.read_jsonl`) are the event log's;
this module adds only :meth:`DiskTrace.record`.

Row fields (one JSON object per request, in service order):

``seq``
    Monotonically increasing request number (order survives
    serialisation and cross-process adoption).
``kind``
    ``"read"`` or ``"write"``.
``byte`` / ``nbytes``
    Linear disk byte address and length of the request.
``cyl``
    Cylinder of the request's first sector.
``seek_cyls``
    Cylinder distance from the head's position before the request.
``seek_ms`` / ``rot_ms`` / ``transfer_ms``
    The mechanical split of the service time: seek, rotational wait,
    and everything else (host overhead + media/bus transfer).
``service_ms``
    Total elapsed service time (the sum of the split).
``lost_rot``
    True when the request waited out nearly a full rotation — the
    Section 5.1 "lost rotation" signature.
``buf_hit``
    True when the track buffer served (part of) a read.
``gc_ms`` / ``map_misses``
    SSD-backend extras: the garbage-collection pause embedded in the
    request and the mapping-cache faults it took.  Absent on
    disk-backend rows, whose serialisation is unchanged.

The trace is wired into :class:`repro.disk.model.DiskModel` through the
same construction-time ``*_or_none`` façade discipline as every other
telemetry hook (replint R002), so the disabled path executes exactly
the statements it executed before tracing existed.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro import schemas
from repro.obs.events import RowLog

SCHEMA = schemas.DISKTRACE

__all__ = ["DiskTrace", "SCHEMA"]


class DiskTrace(RowLog):
    """A bounded, append-only log of per-request disk access rows."""

    DEFAULT_MAX_ROWS = 500_000

    def record(
        self,
        kind: str,
        byte: int,
        nbytes: int,
        cyl: int,
        seek_cyls: int,
        seek_ms: float,
        rot_ms: float,
        transfer_ms: float,
        service_ms: float,
        lost_rot: bool,
        buf_hit: bool,
        *,
        gc_ms: "float | None" = None,
        map_misses: "int | None" = None,
    ) -> Optional[Dict[str, object]]:
        """Append one request row; returns it (or None when dropped).

        Millisecond fields are rounded to 4 decimals: enough for any
        timing analysis, and it keeps the serialised trace compact and
        bit-stable across platforms.

        ``gc_ms`` and ``map_misses`` are the SSD backend's extras — the
        garbage-collection pause embedded in the request and the
        mapping-cache faults it took.  They join the row only when
        provided, so disk-backend traces are byte-identical to traces
        recorded before these fields existed.
        """
        row: Dict[str, object] = {
            "kind": kind,
            "byte": byte,
            "nbytes": nbytes,
            "cyl": cyl,
            "seek_cyls": seek_cyls,
            "seek_ms": round(seek_ms, 4),
            "rot_ms": round(rot_ms, 4),
            "transfer_ms": round(transfer_ms, 4),
            "service_ms": round(service_ms, 4),
            "lost_rot": lost_rot,
            "buf_hit": buf_hit,
        }
        if gc_ms is not None:
            row["gc_ms"] = round(gc_ms, 4)
        if map_misses is not None:
            row["map_misses"] = map_misses
        return self.append(row)
