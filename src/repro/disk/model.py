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
"""

from __future__ import annotations

import enum
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro import obs
from repro.disk.geometry import DiskGeometry
from repro.disk.request import Extent
from repro.disk.trackbuffer import TrackBuffer
from repro.obs.metrics import MetricsRegistry
from repro.units import MB


class IOKind(enum.Enum):
    """Direction of a disk access."""

    READ = "read"
    WRITE = "write"


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
    read_fault_hook:
        Optional fault-injection check called with ``(start_byte,
        nbytes)`` before each read is serviced (see
        :func:`repro.faults.disk.read_fault_hook`).  It raises a typed
        error on a faulted read; the faulted request leaves the model's
        clock, head and buffer untouched, and the requests before it in
        the same call stay served.  It must not read the model's state,
        which catches up only when the call returns.  ``None`` (the
        default) keeps the model byte-identical to a build without fault
        injection.
    """

    def __init__(
        self,
        geometry: "DiskGeometry | None" = None,
        fs_offset_bytes: int = 0,
        bus_rate_bytes_per_ms: float = 10 * MB / 1000.0,
        initial_angle: float = 0.0,
        read_fault_hook: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        self.geometry = geometry if geometry is not None else DiskGeometry()
        self.fs_offset = fs_offset_bytes
        self.bus_rate = bus_rate_bytes_per_ms
        self._initial_angle = initial_angle % 1.0
        self.read_fault_hook = read_fault_hook
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
        if nbytes <= 0:
            raise ValueError("access of zero bytes")
        start = self.now_ms
        self._serve(kind is IOKind.READ, ((start_byte, nbytes),))
        return self.now_ms - start

    def _serve(self, is_read: bool, requests: Iterable[Tuple[int, int]]) -> None:
        """Price ``(start_byte, nbytes)`` requests back to back.

        Each request first pays the host/controller overhead.  The platter
        keeps spinning (and the firmware keeps prefetching) during that
        window — this is what makes sequential writes miss their sector.
        Then:

        * a read that starts inside the buffered window is served from
          drive RAM over the bus; the rest of it arrives at media rate,
          because the prefetch head is already at the frontier;
        * a read that continues the stream just past the window waits for
          the media to arrive there (it is already en route);
        * any other read, and every write, seeks to the target cylinder
          and waits for the target sector; a write also invalidates the
          read-ahead stream.

        The clock, the head, the read-ahead window and the counters live
        in locals and are written back once, in ``finally``: a request
        that raises (an oversized transfer, an injected read fault)
        leaves the model as the requests before it left it.  Float totals
        still grow one request at a time, in service order.
        """
        (ss, spt, spc, rotation, lost_after, media_rate, overhead, head_switch,
         t2t, max_bytes, third, seek_sqrt, seek_avg, seek_linear,
         linear_span) = self._consts
        angle0 = self._initial_angle
        bus_rate = self.bus_rate
        hook = self.read_fault_hook if is_read else None
        buf = self.buffer
        capacity = buf.capacity
        prefetched = int(overhead * buf.media_rate)
        valid, b_start, b_end, frontier = (
            buf._valid, buf._start, buf._end, buf._frontier
        )
        stats = self.stats
        if is_read:
            c_n, c_bytes = stats._c_reads, stats._c_bytes_read
        else:
            c_n, c_bytes = stats._c_writes, stats._c_bytes_written
        n_io, io_bytes, busy = c_n.value, c_bytes.value, stats._c_busy_ms.value
        seeks, seek_total = stats._c_seeks.value, stats._c_seek_ms.value
        rot_total, lost = stats._c_rotation_ms.value, stats._c_lost.value
        hits = stats._c_buf_hits.value
        g = stats._g
        trace = self._trace
        telemetry = g is not None or trace is not None
        now = self.now_ms
        cyl = self.current_cylinder
        try:
            for start_byte, nbytes in requests:
                if nbytes > max_bytes:
                    raise ValueError(
                        f"request of {nbytes} bytes exceeds hardware maximum "
                        f"{max_bytes}"
                    )
                if hook is not None:
                    # Before any state changes, so a caught injected error
                    # leaves the model consistent.
                    hook(start_byte, nbytes)
                start_time = now
                pre_cyl, pre_seek, pre_rot, pre_lost, pre_hits = (
                    cyl, seek_total, rot_total, lost, hits
                )
                if valid and overhead > 0:
                    frontier += prefetched
                    b_end = frontier
                    if b_end - b_start > capacity:
                        b_start = b_end - capacity
                now += overhead

                position = True
                at, xfer = start_byte, nbytes
                if not is_read:
                    valid = False
                    b_start = b_end = frontier = 0
                elif valid and b_start <= start_byte <= b_end and b_start < b_end:
                    position = False
                    if start_byte < b_end:
                        hit = min(nbytes, b_end - start_byte)
                        now += hit / bus_rate
                        hits += 1
                        at += hit
                        xfer -= hit

                if position:
                    sector = start_byte // ss
                    target = sector // spc
                    distance = abs(target - cyl)
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
                    now += seek
                    if seek:
                        seeks += 1
                        seek_total += seek
                    cyl = target
                    # Skewed sector angle (DiskGeometry.rotational_position)
                    # against the platter angle now (angle_at).
                    angle = (
                        (sector % spt) / spt
                        + ((sector // spt - target) * head_switch + target * t2t)
                        / rotation
                    ) % 1.0
                    wait = ((angle - (angle0 + now / rotation) % 1.0) % 1.0) * rotation
                    now += wait
                    rot_total += wait
                    if wait > lost_after:
                        lost += 1

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
                    now += transfer

                if is_read:
                    # The firmware keeps prefetching from the end of this
                    # read; data older than the buffer capacity is evicted.
                    if not valid or start_byte != frontier:
                        b_start = start_byte
                    b_end = frontier = start_byte + nbytes
                    valid = True
                    if b_end - b_start > capacity:
                        b_start = b_end - capacity

                elapsed = now - start_time
                n_io += 1
                io_bytes += nbytes
                busy += elapsed
                if telemetry:
                    if g is not None:
                        gc = stats._g_counters
                        gc["reads" if is_read else "writes"].inc()
                        gc["bytes_read" if is_read else "bytes_written"].inc(nbytes)
                        gc["busy_ms"].inc(elapsed)
                        stats._g_service_hist.observe(elapsed)
                        if hits > pre_hits:
                            gc["buffer_hits"].inc()
                        if position:
                            if seek:
                                gc["seeks"].inc()
                                gc["seek_ms"].inc(seek)
                                stats._g_seek_hist.observe(seek)
                                stats._g_seek_dist_hist.observe(distance)
                            gc["rotation_ms"].inc(wait)
                            if lost > pre_lost:
                                gc["lost_rotations"].inc()
                            stats._g_rot_hist.observe(wait)
                    if trace is not None:
                        target_cyl = start_byte // ss // spc
                        seek_ms = seek_total - pre_seek
                        rot_ms = rot_total - pre_rot
                        trace.record(
                            kind="read" if is_read else "write",
                            byte=start_byte,
                            nbytes=nbytes,
                            cyl=target_cyl,
                            seek_cyls=abs(target_cyl - pre_cyl),
                            seek_ms=seek_ms,
                            rot_ms=rot_ms,
                            transfer_ms=elapsed - seek_ms - rot_ms,
                            service_ms=elapsed,
                            lost_rot=lost > pre_lost,
                            buf_hit=hits > pre_hits,
                        )
        finally:
            self.now_ms = now
            self.current_cylinder = cyl
            buf._valid, buf._start, buf._end, buf._frontier = (
                valid, b_start, b_end, frontier
            )
            c_n.value, c_bytes.value, stats._c_busy_ms.value = n_io, io_bytes, busy
            stats._c_seeks.value, stats._c_seek_ms.value = seeks, seek_total
            stats._c_rotation_ms.value, stats._c_lost.value = rot_total, lost
            stats._c_buf_hits.value = hits

    # ------------------------------------------------------------------
    # Extent-level API used by the benchmarks
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
        size, exactly as the FFS clustering layer would (the arithmetic of
        :func:`~repro.disk.request.split_for_transfer`).  The whole list
        is split and checked before the first request is served.
        """
        max_blocks = max(1, self.geometry.max_transfer_bytes // block_size)
        fs_offset = self.fs_offset
        requests: List[Tuple[int, int]] = []
        for ext in extents:
            block, blocks_left, bytes_left = ext.start, ext.nblocks, ext.nbytes
            while blocks_left > 0:
                take = min(max_blocks, blocks_left)
                take_bytes = min(take * block_size, bytes_left)
                if take_bytes <= 0:
                    raise ValueError(f"{ext} splits into a request of 0 bytes")
                requests.append((fs_offset + block * block_size, take_bytes))
                block += take
                blocks_left -= take
                bytes_left -= take_bytes
        start = self.now_ms
        self._serve(kind is IOKind.READ, requests)
        return self.now_ms - start

    def synchronous_metadata_write(self, fs_block: int, block_size: int) -> float:
        """One synchronous sector-sized metadata update (inode/directory).

        FFS writes metadata synchronously on create/delete; Section 5.1
        finds these dominate small-file create time.
        """
        start = self.now_ms
        byte = self.block_to_byte(fs_block, block_size)
        self._serve(False, ((byte, self.geometry.sector_size),))
        return self.now_ms - start


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
        # Handles for DiskModel._serve, which reads these totals into
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

    def throughput_bytes_per_sec(self) -> float:
        """Aggregate throughput over busy time (both directions)."""
        busy_ms = self.busy_ms
        if busy_ms == 0:
            return 0.0
        return (self.bytes_read + self.bytes_written) / (busy_ms / 1000.0)
