"""SSD timing model: the flash twin of :class:`~repro.disk.model.DiskModel`.

Presents the identical ``serve(kind, requests) -> elapsed_ms`` contract
(plus ``access`` for one request and the extent-level helpers), so
every benchmark, experiment, and chaos case that drives a ``DiskModel``
can drive this instead via :func:`repro.storage.make_storage`.

The structural differences all fall out of the FTL underneath:

* **No positioning costs** — a request's time is pages x flash latency
  plus bus transfer; where the request *lands* is irrelevant, which is
  exactly why rotational placement's win collapses on this backend.
* **Garbage-collection pauses** — an overwrite-heavy workload
  eventually stalls behind victim migration and erases; the pause is
  charged to the request that triggered it and surfaced per-request in
  the disk trace (``gc_ms``) and in aggregate (``ssd.gc_ms``).
* **Translation faults** — the bounded mapping cache makes scattered
  access pay a measurable translation tax (``map_misses`` per request).

Timing is layout-insensitive but *history-sensitive*: two identical
request sequences always take identical time (determinism), while the
same request can cost more on a device whose free pool is fragmented.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro import obs, schemas
from repro.disk.model import IOKind
from repro.disk.request import Extent, byte_requests
from repro.errors import InvalidRequestError
from repro.obs.metrics import MetricsRegistry
from repro.ssd.config import SSDGeometry
from repro.ssd.ftl import PageMappedFTL

#: A flash plan: the request kind and the requests, as given.
SSDPlan = Tuple[IOKind, Sequence[Tuple[int, int]]]


class SSDModel:
    """Simulated flash device: extent sequences to elapsed time.

    Parameters
    ----------
    geometry:
        Flash layout/timing parameters (defaults to a device exporting
        the same capacity as Table 1's disk).
    fs_offset_bytes:
        Byte offset of the file-system partition; file-system block
        addresses are linearised relative to this.
    """

    def __init__(
        self,
        geometry: "SSDGeometry | None" = None,
        fs_offset_bytes: int = 0,
    ) -> None:
        self.geometry = geometry if geometry is not None else SSDGeometry()
        self.fs_offset = fs_offset_bytes
        self._trace = obs.disktrace_or_none()
        self.reset()

    # ------------------------------------------------------------------
    # Clock and state
    # ------------------------------------------------------------------

    def reset(self, initial_angle: "float | None" = None) -> None:
        """Rewind the clock and start from a freshly-erased device.

        ``initial_angle`` is accepted for interface compatibility with
        the disk model and ignored: flash has no platter, so repetition
        jitter is structurally zero on this backend.
        """
        del initial_angle
        self.now_ms = 0.0
        self.ftl = PageMappedFTL(self.geometry)
        self.stats = SSDStats()

    def idle(self, ms: float) -> None:
        """Advance the clock for host think time."""
        if ms < 0:
            raise InvalidRequestError("cannot idle for negative time")
        self.now_ms += ms

    def drop_caches(self) -> None:
        """Start-of-phase cache drop: a no-op on flash.

        The disk model invalidates its track buffer here; the SSD's
        only cache is the FTL's *device-internal* mapping cache, which
        a host cache flush does not touch.
        """

    # ------------------------------------------------------------------
    # Request pricing
    # ------------------------------------------------------------------

    def access(self, kind: IOKind, start_byte: int, nbytes: int) -> float:
        """Service one request of ``nbytes`` at linear ``start_byte``.

        Returns the service time in milliseconds and advances the
        clock.  ``nbytes`` must not exceed the hardware maximum
        transfer size; higher layers split requests first — the same
        contract as the disk model.
        """
        return self.serve(kind, ((start_byte, nbytes),))

    def serve(self, kind: IOKind, requests: Sequence[Tuple[int, int]]) -> float:
        """Price ``(start_byte, nbytes)`` requests back to back.

        Returns the elapsed milliseconds.  A zero-byte request anywhere in
        ``requests`` raises before the first request is served; an
        oversized request raises later and leaves the device as the
        requests before it left it.
        """
        return self.clock(self.plan(kind, requests))

    def plan(self, kind: IOKind, requests: Sequence[Tuple[int, int]]) -> SSDPlan:
        """The disk model's planning pass, on flash: nothing but the
        zero-byte check can be fixed ahead of the FTL, so the plan is
        the requests themselves."""
        for _start_byte, nbytes in requests:
            if nbytes <= 0:
                raise InvalidRequestError("access of zero bytes")
        return kind, requests

    def clock(self, plan: SSDPlan) -> float:
        """Serve a :meth:`plan`'s requests; returns the elapsed ms."""
        kind, requests = plan
        start = self.now_ms
        step = self._step
        for start_byte, nbytes in requests:
            step(kind, start_byte, nbytes)
        return self.now_ms - start

    def _step(self, kind: IOKind, start_byte: int, nbytes: int) -> None:
        """Serve one request: page reads or programs, then the bus."""
        geo = self.geometry
        if nbytes > geo.max_transfer_bytes:
            raise InvalidRequestError(
                f"request of {nbytes} bytes exceeds hardware maximum "
                f"{geo.max_transfer_bytes}"
            )
        start_time = self.now_ms
        ftl = self.ftl
        cache = ftl.map_cache
        pre_reads = ftl.flash_reads
        pre_programs = ftl.flash_programs
        pre_erases = ftl.flash_erases
        pre_gc_runs = ftl.gc_runs
        pre_moved = ftl.gc_moved_pages
        pre_host = ftl.host_pages_written
        pre_hits = cache.hits
        pre_misses = cache.misses
        pre_writebacks = cache.writebacks
        self.now_ms += geo.request_overhead_ms
        first_lpn = start_byte // geo.page_size
        last_lpn = (start_byte + nbytes - 1) // geo.page_size
        gc_ms = 0.0
        if kind is IOKind.READ:
            for lpn in range(first_lpn, last_lpn + 1):
                self.now_ms += ftl.read(lpn)
        else:
            # Sub-page and unaligned writes program whole pages: the
            # read-modify-write a real FTL performs is folded into the
            # page program, and the amplification it causes is real.
            for lpn in range(first_lpn, last_lpn + 1):
                page_ms, pause_ms = ftl.write(lpn)
                self.now_ms += page_ms
                gc_ms += pause_ms
        self.now_ms += nbytes / geo.bus_rate_bytes_per_ms
        elapsed = self.now_ms - start_time
        self.stats.record(kind, nbytes, elapsed)
        self.stats.record_flash(
            flash_reads=ftl.flash_reads - pre_reads,
            flash_programs=ftl.flash_programs - pre_programs,
            flash_erases=ftl.flash_erases - pre_erases,
            gc_runs=ftl.gc_runs - pre_gc_runs,
            gc_moved_pages=ftl.gc_moved_pages - pre_moved,
            host_pages_written=ftl.host_pages_written - pre_host,
            map_hits=cache.hits - pre_hits,
            map_misses=cache.misses - pre_misses,
            map_writebacks=cache.writebacks - pre_writebacks,
            gc_ms=gc_ms,
        )
        if self._trace is not None:
            # Same fixed row as the disk backend (mechanical fields
            # pinned to zero), plus the SSD-specific extras.
            self._trace.record(
                kind=kind.value,
                byte=start_byte,
                nbytes=nbytes,
                cyl=0,
                seek_cyls=0,
                seek_ms=0.0,
                rot_ms=0.0,
                transfer_ms=elapsed - gc_ms,
                service_ms=elapsed,
                lost_rot=False,
                buf_hit=False,
                gc_ms=gc_ms,
                map_misses=cache.misses - pre_misses,
            )

    # ------------------------------------------------------------------
    # Extent-level wrappers over serve
    # ------------------------------------------------------------------

    def block_to_byte(self, fs_block: int, block_size: int) -> int:
        """Linear device byte address of a file-system block."""
        return self.fs_offset + fs_block * block_size

    def transfer_extents(
        self,
        kind: IOKind,
        extents: Sequence[Extent],
        block_size: int,
    ) -> float:
        """Issue all ``extents`` in order; return total elapsed ms."""
        return self.serve(kind, byte_requests(
            extents, block_size, self.geometry.max_transfer_bytes, self.fs_offset
        ))

    def synchronous_metadata_write(self, fs_block: int, block_size: int) -> float:
        """One synchronous sector-sized metadata update (inode/directory)."""
        byte = self.block_to_byte(fs_block, block_size)
        return self.serve(IOKind.WRITE, ((byte, self.geometry.sector_size),))


class SSDStats:
    """Counters accumulated by an :class:`SSDModel` run.

    Mirrors the :class:`~repro.disk.model.DiskStats` design: a thin
    attribute façade over a private registry, with every event
    additionally mirrored into the process-wide registry when telemetry
    is enabled — and byte-identical behaviour when it is not.
    """

    #: Field order of :meth:`to_dict`.  The first five match the
    #: disk-stats layout so backend-generic consumers line up; the rest
    #: are the flash-specific accounting.
    FIELDS = (
        "reads", "writes", "bytes_read", "bytes_written", "busy_ms",
        "flash_reads", "flash_programs", "flash_erases",
        "gc_runs", "gc_moved_pages", "gc_ms",
        "map_hits", "map_misses", "map_writebacks",
        "host_pages_written",
    )

    def __init__(self, registry: "MetricsRegistry | None" = None) -> None:
        m = registry if registry is not None else MetricsRegistry()
        self._m = m
        self._counters = {name: m.counter(f"ssd.{name}") for name in self.FIELDS}
        c = self._counters
        self._c_reads = c["reads"]
        self._c_writes = c["writes"]
        self._c_bytes_read = c["bytes_read"]
        self._c_bytes_written = c["bytes_written"]
        self._c_busy_ms = c["busy_ms"]
        g = obs.metrics_or_none()
        self._g = g
        if g is not None:
            self._g_counters = {
                name: g.counter(f"ssd.{name}") for name in self.FIELDS
            }
            self._g_service_hist = g.histogram("ssd.service_time_ms")
            self._g_gc_hist = g.histogram("ssd.gc_pause_ms")

    # -- the disk-stats-compatible attribute API -----------------------

    reads = property(lambda self: self._counters["reads"].value)
    writes = property(lambda self: self._counters["writes"].value)
    bytes_read = property(lambda self: self._counters["bytes_read"].value)
    bytes_written = property(lambda self: self._counters["bytes_written"].value)
    busy_ms = property(lambda self: self._counters["busy_ms"].value)
    flash_reads = property(lambda self: self._counters["flash_reads"].value)
    flash_programs = property(lambda self: self._counters["flash_programs"].value)
    flash_erases = property(lambda self: self._counters["flash_erases"].value)
    gc_runs = property(lambda self: self._counters["gc_runs"].value)
    gc_moved_pages = property(lambda self: self._counters["gc_moved_pages"].value)
    gc_ms = property(lambda self: self._counters["gc_ms"].value)
    map_hits = property(lambda self: self._counters["map_hits"].value)
    map_misses = property(lambda self: self._counters["map_misses"].value)
    map_writebacks = property(lambda self: self._counters["map_writebacks"].value)
    host_pages_written = property(
        lambda self: self._counters["host_pages_written"].value
    )

    def record(self, kind: IOKind, nbytes: int, elapsed_ms: float) -> None:
        """Account one completed request."""
        if kind is IOKind.READ:
            self._c_reads.value += 1
            self._c_bytes_read.value += nbytes
        else:
            self._c_writes.value += 1
            self._c_bytes_written.value += nbytes
        self._c_busy_ms.value += elapsed_ms
        if self._g is not None:
            gc = self._g_counters
            if kind is IOKind.READ:
                gc["reads"].inc()
                gc["bytes_read"].inc(nbytes)
            else:
                gc["writes"].inc()
                gc["bytes_written"].inc(nbytes)
            gc["busy_ms"].inc(elapsed_ms)
            self._g_service_hist.observe(elapsed_ms)

    def record_flash(
        self,
        flash_reads: int,
        flash_programs: int,
        flash_erases: int,
        gc_runs: int,
        gc_moved_pages: int,
        host_pages_written: int,
        map_hits: int,
        map_misses: int,
        map_writebacks: int,
        gc_ms: float,
    ) -> None:
        """Account one request's FTL activity (deltas, not totals)."""
        c = self._counters
        c["flash_reads"].value += flash_reads
        c["flash_programs"].value += flash_programs
        c["flash_erases"].value += flash_erases
        c["gc_runs"].value += gc_runs
        c["gc_moved_pages"].value += gc_moved_pages
        c["gc_ms"].value += gc_ms
        c["map_hits"].value += map_hits
        c["map_misses"].value += map_misses
        c["map_writebacks"].value += map_writebacks
        c["host_pages_written"].value += host_pages_written
        if self._g is not None:
            g = self._g_counters
            g["flash_reads"].inc(flash_reads)
            g["flash_programs"].inc(flash_programs)
            g["flash_erases"].inc(flash_erases)
            g["gc_runs"].inc(gc_runs)
            g["gc_moved_pages"].inc(gc_moved_pages)
            g["gc_ms"].inc(gc_ms)
            g["map_hits"].inc(map_hits)
            g["map_misses"].inc(map_misses)
            g["map_writebacks"].inc(map_writebacks)
            g["host_pages_written"].inc(host_pages_written)
            if gc_ms > 0:
                self._g_gc_hist.observe(gc_ms)

    def write_amplification(self) -> float:
        """Data pages programmed per host page written (1.0 = none)."""
        host = self.host_pages_written
        if host == 0:
            return 1.0
        return self.flash_programs / host

    def to_dict(self) -> "dict[str, float]":
        """All counters as a flat, stably ordered plain dict."""
        return {name: self._counters[name].value for name in self.FIELDS}

    def to_document(self) -> "dict[str, object]":
        """Schema-stamped stats record for reports and experiments."""
        document: "dict[str, object]" = {"schema": schemas.SSD_STATS}
        document.update(self.to_dict())
        document["write_amplification"] = round(self.write_amplification(), 4)
        return document
