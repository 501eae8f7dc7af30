"""Analytical disk timing model with exact angular bookkeeping.

This is the substrate for every throughput number in the reproduction.  The
model keeps a simulated clock, the head's current cylinder, and the platter
angle as a continuous function of time.  Because the angle is tracked
exactly, the two phenomena Section 5.1 of the paper hinges on *emerge*
rather than being special-cased:

* **Lost rotations on sequential writes** — after a 64 KB write completes,
  the host needs ``request_overhead_ms`` to issue the next request; by then
  the platter has rotated a few sectors past the next block, so the drive
  waits almost a full rotation.
* **Small seeks beating lost rotations** — a write whose next extent is a
  short seek away pays ~1.7 ms seek + ~half a rotation on average, which is
  *less* than the ~11 ms lost rotation of perfectly contiguous layout.
  This is why the paper measures realloc's large-file write throughput
  *above* raw-disk write throughput.

Reads are filtered through a :class:`~repro.disk.trackbuffer.TrackBuffer`,
so back-to-back sequential reads stream at media rate.

Pricing is two passes.  :meth:`DiskModel.plan` walks a request list
once and fixes everything the clock does not touch: buffer hits, seeks,
each target sector's angle, transfers, and the head and read-ahead
state the list leaves behind.  :meth:`DiskModel.clock` then adds the
times up against one platter angle, waiting for each sector, and
publishes the counters and trace rows.  :meth:`DiskModel.serve` is one
plan clocked on the model that made it; a benchmark phase, which
serves the same list at several initial angles, plans it once and
clocks it on a fresh model per angle.
"""

from __future__ import annotations

import enum
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro import obs
from repro.disk.geometry import DiskGeometry
from repro.disk.request import Extent, byte_requests
from repro.disk.trackbuffer import TrackBuffer
from repro.obs.metrics import MetricsRegistry
from repro.units import MB


class IOKind(enum.Enum):
    """Direction of a disk access."""

    READ = "read"
    WRITE = "write"


#: Head cylinder, then the read-ahead window: valid, start, end, frontier.
HeadState = Tuple[int, bool, int, int, int]

#: One planned request: ``(hit_ms, seek_ms, angle, transfer_ms,
#: seek_cyls)``.  ``angle`` is the skewed angle of the target sector, or
#: ``None`` for a read the track buffer serves without positioning.
Step = Tuple[float, float, Optional[float], float, int]


class DiskPlan(NamedTuple):
    """A request list priced up to the clock (:meth:`DiskModel.plan`).

    ``steps`` has one entry per request the plan serves; ``error`` is
    what the next request raised, if one did.  ``start`` and ``end`` are
    the head and read-ahead state before and after; the counts are the
    served requests' bytes, seeks and buffer hits.
    """

    kind: "IOKind"
    requests: Sequence[Tuple[int, int]]
    steps: List[Step]
    start: HeadState
    end: HeadState
    io_bytes: int
    seeks: int
    hits: int
    error: Optional[Exception]


class DiskModel:
    """Simulated disk: converts extent sequences into elapsed time.

    Parameters
    ----------
    geometry:
        Mechanical/geometric parameters (defaults to Table 1's drive).
    fs_offset_bytes:
        Byte offset of the file-system partition on the disk; file-system
        block addresses are linearised relative to this.
    bus_rate_bytes_per_ms:
        Host transfer rate for buffer hits (SCSI-2 fast, ~10 MB/s).
    initial_angle:
        Platter angle at time zero, as a fraction of a rotation.  The
        benchmark runner varies this across repetitions to obtain the
        small run-to-run variation the paper reports (std dev < 1.5%).
    """

    def __init__(
        self,
        geometry: "DiskGeometry | None" = None,
        fs_offset_bytes: int = 0,
        bus_rate_bytes_per_ms: float = 10 * MB / 1000.0,
        initial_angle: float = 0.0,
    ) -> None:
        self.geometry = geometry if geometry is not None else DiskGeometry()
        self.fs_offset = fs_offset_bytes
        self.bus_rate = bus_rate_bytes_per_ms
        self._initial_angle = initial_angle % 1.0
        self._trace = obs.disktrace_or_none()
        geo = self.geometry
        # Geometry constants of the pricing loop, unpacked once per call.
        third = max(1, geo.cylinders // 3)
        self._consts = (
            geo.sector_size, geo.sectors_per_track, geo.sectors_per_cylinder,
            geo.rotation_ms, 0.9 * geo.rotation_ms, geo.media_rate_bytes_per_ms,
            geo.request_overhead_ms, geo.head_switch_ms,
            geo.seek_track_to_track_ms, geo.max_transfer_bytes, third,
            geo.seek_avg_ms - geo.seek_track_to_track_ms, geo.seek_avg_ms,
            geo.full_stroke_seek_ms - geo.seek_avg_ms,
            max(1, geo.cylinders - third),
        )
        self.reset()

    # ------------------------------------------------------------------
    # Clock and state
    # ------------------------------------------------------------------

    def reset(self, initial_angle: "float | None" = None) -> None:
        """Rewind the clock and forget head/buffer state."""
        if initial_angle is not None:
            self._initial_angle = initial_angle % 1.0
        self.now_ms = 0.0
        self.current_cylinder = 0
        self.buffer = TrackBuffer(
            self.geometry.track_buffer_bytes,
            self.geometry.media_rate_bytes_per_ms,
        )
        self.stats = DiskStats()

    def angle_at(self, t_ms: float) -> float:
        """Platter angle (fraction of a rotation) at absolute time ``t_ms``."""
        return (self._initial_angle + t_ms / self.geometry.rotation_ms) % 1.0

    def idle(self, ms: float) -> None:
        """Advance the clock for host think time; read-ahead continues."""
        if ms < 0:
            raise ValueError("cannot idle for negative time")
        self.buffer.prefetch(ms)
        self.now_ms += ms

    def drop_caches(self) -> None:
        """Start-of-phase cache drop: forget the track buffer.

        Backend-generic entry point (part of the ``StorageModel``
        protocol); the SSD twin makes this a no-op.
        """
        self.buffer.invalidate()

    # ------------------------------------------------------------------
    # Request pricing
    # ------------------------------------------------------------------

    def access(self, kind: IOKind, start_byte: int, nbytes: int) -> float:
        """Service one request of ``nbytes`` at linear ``start_byte``.

        Returns the service time in milliseconds and advances the clock.
        ``nbytes`` must not exceed the hardware maximum transfer size;
        higher layers split requests first.
        """
        return self.serve(kind, ((start_byte, nbytes),))

    def serve(self, kind: IOKind, requests: Sequence[Tuple[int, int]]) -> float:
        """Price ``(start_byte, nbytes)`` requests back to back.

        Returns the elapsed milliseconds and advances the clock: the
        :meth:`plan` of ``requests`` against this device, then its
        :meth:`clock` on it.  A zero-byte request anywhere in
        ``requests`` raises before the first request is served; an
        oversized request raises later and leaves the model as the
        requests before it left it.
        """
        return self.clock(self.plan(kind, requests))

    def _head_state(self) -> HeadState:
        buf = self.buffer
        return (
            self.current_cylinder, buf._valid, buf._start, buf._end,
            buf._frontier,
        )

    def plan(self, kind: IOKind, requests: Sequence[Tuple[int, int]]) -> "DiskPlan":
        """Price ``requests`` up to the clock; the model does not change.

        Only the rotational wait depends on when a request starts, so
        everything else is fixed by the requests and the head and
        read-ahead state they start from.  Each request first pays the
        host/controller overhead.  The platter keeps spinning (and the
        firmware keeps prefetching) during that window — this is what
        makes sequential writes miss their sector.  Then:

        * a read that starts inside the buffered window is served from
          drive RAM over the bus; the rest of it arrives at media rate,
          because the prefetch head is already at the frontier;
        * a read that continues the stream just past the window waits for
          the media to arrive there (it is already en route);
        * any other read, and every write, seeks to the target cylinder
          and waits for the target sector; a write also invalidates the
          read-ahead stream.

        A zero-byte request anywhere in ``requests`` raises here.  An
        oversized request (``ValueError``) ends the plan: it keeps the
        requests before it and the error, which :meth:`clock` raises
        once it has served them.
        """
        for _start_byte, nbytes in requests:
            if nbytes <= 0:
                raise ValueError("access of zero bytes")
        is_read = kind is IOKind.READ
        (ss, spt, spc, rotation, _lost_after, media_rate, overhead, head_switch,
         t2t, max_bytes, third, seek_sqrt, seek_avg, seek_linear,
         linear_span) = self._consts
        bus_rate = self.bus_rate
        capacity = self.buffer.capacity
        prefetched = int(overhead * self.buffer.media_rate)
        start = self._head_state()
        cyl, valid, b_start, b_end, frontier = start
        steps: List[Step] = []
        step = steps.append
        io_bytes = seeks = hits = 0
        error: Optional[Exception] = None
        try:
            for start_byte, nbytes in requests:
                if nbytes > max_bytes:
                    raise ValueError(
                        f"request of {nbytes} bytes exceeds hardware maximum "
                        f"{max_bytes}"
                    )
                if valid and overhead > 0:
                    frontier += prefetched
                    b_end = frontier
                    if b_end - b_start > capacity:
                        b_start = b_end - capacity
                sector = start_byte // ss
                target = sector // spc
                distance = abs(target - cyl)
                hit_ms = seek = transfer = 0.0
                angle: Optional[float] = None
                at, xfer = start_byte, nbytes
                if not is_read:
                    valid = False
                    b_start = b_end = frontier = 0
                if valid and b_start <= start_byte <= b_end and b_start < b_end:
                    if start_byte < b_end:
                        hit = min(nbytes, b_end - start_byte)
                        hit_ms = hit / bus_rate
                        hits += 1
                        at += hit
                        xfer -= hit
                else:
                    # Seek curve: sqrt from one cylinder to a third of the
                    # stroke, linear beyond (DiskGeometry.seek_time_ms).
                    if distance == 0:
                        seek = 0.0
                    elif distance == 1:
                        seek = t2t
                    elif distance <= third:
                        seek = t2t + seek_sqrt * ((distance - 1) / (third - 1)) ** 0.5
                    else:
                        seek = seek_avg + seek_linear * (
                            (distance - third) / linear_span
                        )
                    if seek:
                        seeks += 1
                    cyl = target
                    # Skewed sector angle (DiskGeometry.rotational_position).
                    angle = (
                        (sector % spt) / spt
                        + ((sector // spt - target) * head_switch + target * t2t)
                        / rotation
                    ) % 1.0

                if xfer:
                    # Media rate plus a head switch per track crossed and a
                    # track-to-track seek per cylinder crossed.
                    first = at // ss
                    last = (at + xfer - 1) // ss
                    transfer = xfer / media_rate
                    tracks = last // spt - first // spt
                    if tracks:
                        cyls = last // spc - first // spc
                        transfer += (tracks - cyls) * head_switch
                        transfer += cyls * t2t
                    cyl = last // spc

                if is_read:
                    # The firmware keeps prefetching from the end of this
                    # read; data older than the buffer capacity is evicted.
                    if not valid or start_byte != frontier:
                        b_start = start_byte
                    b_end = frontier = start_byte + nbytes
                    valid = True
                    if b_end - b_start > capacity:
                        b_start = b_end - capacity
                io_bytes += nbytes
                step((hit_ms, seek, angle, transfer, distance))
        except ValueError as exc:
            error = exc
        return DiskPlan(
            kind, requests, steps, start, (cyl, valid, b_start, b_end, frontier),
            io_bytes, seeks, hits, error,
        )

    def clock(self, plan: "DiskPlan") -> float:
        """Serve a :meth:`plan` on this model's clock and platter angle.

        Each request adds, in order, the host overhead, the bus time of a
        buffer hit, the seek, the wait for its sector against the platter
        angle then (:meth:`angle_at`) and the transfer.  Returns the
        elapsed milliseconds and advances the clock; the head, the
        read-ahead window and the counters move as serving the plan's
        requests would move them.  Raises the plan's error, if it has
        one, after serving the requests before it.  A plan made from
        another head or read-ahead state is refused (``ValueError``)
        before anything moves.
        """
        if plan.start != self._head_state():
            raise ValueError(
                "plan was made for another head or read-ahead state"
            )
        is_read = plan.kind is IOKind.READ
        ss, _spt, spc, rotation, lost_after, _rate, overhead = self._consts[:7]
        angle0 = self._initial_angle
        stats = self.stats
        busy, seek_total = stats._c_busy_ms.value, stats._c_seek_ms.value
        rot_total, lost = stats._c_rotation_ms.value, stats._c_lost.value
        g = stats._g
        trace = self._trace
        telemetry = g is not None or trace is not None
        now = start = self.now_ms
        for (start_byte, nbytes), (hit_ms, seek, angle, transfer, distance) in zip(
            plan.requests, plan.steps
        ):
            begin = now
            pre_seek, pre_rot = seek_total, rot_total
            now += overhead
            now += hit_ms
            wait = 0.0
            if angle is not None:
                now += seek
                if seek:
                    seek_total += seek
                wait = ((angle - (angle0 + now / rotation) % 1.0) % 1.0) * rotation
                now += wait
                rot_total += wait
                if wait > lost_after:
                    lost += 1
            now += transfer
            elapsed = now - begin
            busy += elapsed
            if telemetry:
                if g is not None:
                    gc = stats._g_counters
                    gc["reads" if is_read else "writes"].inc()
                    gc["bytes_read" if is_read else "bytes_written"].inc(nbytes)
                    gc["busy_ms"].inc(elapsed)
                    stats._g_service_hist.observe(elapsed)
                    if hit_ms:
                        gc["buffer_hits"].inc()
                    if angle is not None:
                        if seek:
                            gc["seeks"].inc()
                            gc["seek_ms"].inc(seek)
                            stats._g_seek_hist.observe(seek)
                            stats._g_seek_dist_hist.observe(distance)
                        gc["rotation_ms"].inc(wait)
                        if wait > lost_after:
                            gc["lost_rotations"].inc()
                        stats._g_rot_hist.observe(wait)
                if trace is not None:
                    seek_ms = seek_total - pre_seek
                    rot_ms = rot_total - pre_rot
                    trace.record(
                        kind="read" if is_read else "write",
                        byte=start_byte,
                        nbytes=nbytes,
                        cyl=start_byte // ss // spc,
                        seek_cyls=distance,
                        seek_ms=seek_ms,
                        rot_ms=rot_ms,
                        transfer_ms=elapsed - seek_ms - rot_ms,
                        service_ms=elapsed,
                        lost_rot=wait > lost_after,
                        buf_hit=hit_ms > 0,
                    )
        self.now_ms = now
        buf = self.buffer
        self.current_cylinder, buf._valid, buf._start, buf._end, buf._frontier = (
            plan.end
        )
        if is_read:
            c_n, c_bytes = stats._c_reads, stats._c_bytes_read
        else:
            c_n, c_bytes = stats._c_writes, stats._c_bytes_written
        c_n.value += len(plan.steps)
        c_bytes.value += plan.io_bytes
        stats._c_busy_ms.value = busy
        stats._c_seeks.value += plan.seeks
        stats._c_seek_ms.value = seek_total
        stats._c_rotation_ms.value, stats._c_lost.value = rot_total, lost
        stats._c_buf_hits.value += plan.hits
        if plan.error is not None:
            raise plan.error
        return now - start

    # ------------------------------------------------------------------
    # Extent-level wrappers over serve
    # ------------------------------------------------------------------

    def block_to_byte(self, fs_block: int, block_size: int) -> int:
        """Linear disk byte address of a file-system block."""
        return self.fs_offset + fs_block * block_size

    def transfer_extents(
        self,
        kind: IOKind,
        extents: Sequence[Extent],
        block_size: int,
    ) -> float:
        """Issue all ``extents`` in order; return total elapsed ms.

        Each extent is split to respect the hardware maximum transfer
        size (:func:`~repro.disk.request.byte_requests`).  The whole list
        is split and checked before the first request is served.
        """
        return self.serve(kind, byte_requests(
            extents, block_size, self.geometry.max_transfer_bytes, self.fs_offset
        ))

    def synchronous_metadata_write(self, fs_block: int, block_size: int) -> float:
        """One synchronous sector-sized metadata update (inode/directory).

        FFS writes metadata synchronously on create/delete; Section 5.1
        finds these dominate small-file create time.
        """
        byte = self.block_to_byte(fs_block, block_size)
        return self.serve(IOKind.WRITE, ((byte, self.geometry.sector_size),))


class DiskStats:
    """Counters accumulated by a :class:`DiskModel` run.

    The historical attribute API (``stats.seeks``, ``stats.busy_ms``...)
    is now a thin façade over registry-backed counters: each instance
    owns a private :class:`~repro.obs.metrics.MetricsRegistry`, so
    per-model semantics (``reset()``, per-run counts) are unchanged.
    When process-wide telemetry is enabled (:mod:`repro.obs`), the
    pricing loop mirrors every event into the global registry, where the
    per-event histograms — seek time, rotational wait, request service
    time — accumulate across all disk models of the run.
    """

    #: Field order of :meth:`to_dict`, matching the pre-telemetry layout.
    FIELDS = (
        "reads", "writes", "bytes_read", "bytes_written", "busy_ms",
        "seeks", "seek_ms", "rotation_ms", "lost_rotations", "buffer_hits",
    )

    def __init__(self, registry: "MetricsRegistry | None" = None) -> None:
        m = registry if registry is not None else MetricsRegistry()
        self._m = m
        self._counters = {name: m.counter(f"disk.{name}") for name in self.FIELDS}
        # Handles for DiskModel.serve, which reads these totals into
        # locals once per call and writes them back when it returns.
        c = self._counters
        self._c_reads = c["reads"]
        self._c_writes = c["writes"]
        self._c_bytes_read = c["bytes_read"]
        self._c_bytes_written = c["bytes_written"]
        self._c_busy_ms = c["busy_ms"]
        self._c_seeks = c["seeks"]
        self._c_seek_ms = c["seek_ms"]
        self._c_rotation_ms = c["rotation_ms"]
        self._c_lost = c["lost_rotations"]
        self._c_buf_hits = c["buffer_hits"]
        g = obs.metrics_or_none()
        self._g = g
        if g is not None:
            self._g_counters = {
                name: g.counter(f"disk.{name}") for name in self.FIELDS
            }
            self._g_seek_hist = g.histogram("disk.seek_time_ms")
            self._g_seek_dist_hist = g.histogram("disk.seek_distance_cyl")
            self._g_rot_hist = g.histogram("disk.rot_wait_ms")
            self._g_service_hist = g.histogram("disk.service_time_ms")

    # -- the historical counter-bag API, backed by the registry --------

    reads = property(lambda self: self._counters["reads"].value)
    writes = property(lambda self: self._counters["writes"].value)
    bytes_read = property(lambda self: self._counters["bytes_read"].value)
    bytes_written = property(lambda self: self._counters["bytes_written"].value)
    busy_ms = property(lambda self: self._counters["busy_ms"].value)
    seeks = property(lambda self: self._counters["seeks"].value)
    seek_ms = property(lambda self: self._counters["seek_ms"].value)
    rotation_ms = property(lambda self: self._counters["rotation_ms"].value)
    lost_rotations = property(lambda self: self._counters["lost_rotations"].value)
    buffer_hits = property(lambda self: self._counters["buffer_hits"].value)

    def to_dict(self) -> "dict[str, float]":
        """All counters as a flat, stably ordered plain dict."""
        return {name: self._counters[name].value for name in self.FIELDS}
