"""Differential tests for the allocation, device-pricing and LFS hot paths.

``FragBitmap`` answers fragment and whole-block searches with
``bytearray`` primitives over its own arrays; ``DiskModel``
prices requests in one loop over locals; ``LogStructuredFS`` keeps its
layout-score pair counts and clean-segment count incrementally.  These
tests drive the fast code and deliberately naive references through the
same randomized operation sequences and require identical observable
state — including identical error behaviour — after every step.
"""

from __future__ import annotations

import dataclasses
import random  # replint: disable=R001  (seeded test-local stream; repro.rng is the library-side rule)
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from repro import obs
from repro.aging.replay import ReplayResult
from repro.aging.workload import Workload
from repro.analysis.layout import score_file_set
from repro.analysis.timeline import DailySample, Timeline
from repro.disk.geometry import DiskGeometry
from repro.disk.model import DiskModel, DiskStats, IOKind
from repro.disk.request import Extent, split_for_transfer
from repro.disk.trackbuffer import TrackBuffer
from repro.errors import (
    FileNotFoundSimError,
    InvalidRequestError,
    LatentSectorReadError,
    OutOfSpaceError,
)
from repro.ffs.bitmap import FragBitmap
from repro.ffs.cg import CylinderGroup
from repro.ffs.params import scaled_params
from repro.lfs.filesystem import LfsInode, LogStructuredFS, SegmentInfo
from repro.lfs.params import LFSParams
from repro.lfs.replay import LfsReplayer
from repro.obs.disktrace import DiskTrace
from repro.units import KB, MB


# ----------------------------------------------------------------------
# Naive references (one obvious loop per operation)
# ----------------------------------------------------------------------


class RefBitmap:
    """Per-fragment list-of-lists bitmap; every operation is a loop."""

    def __init__(self, nblocks: int, fpb: int):
        self.nblocks = nblocks
        self.fpb = fpb
        self.bits = [[0] * fpb for _ in range(nblocks)]

    def alloc_run(self, block: int, offset: int, nfrags: int) -> None:
        row = self.bits[block]
        if any(row[i] for i in range(offset, offset + nfrags)):
            raise ValueError("double allocation")
        for i in range(offset, offset + nfrags):
            row[i] = 1

    def alloc_block_range(self, block: int, nblocks: int) -> None:
        if any(
            self.bits[b][i]
            for b in range(block, block + nblocks)
            for i in range(self.fpb)
        ):
            raise ValueError("double allocation")
        for b in range(block, block + nblocks):
            self.bits[b] = [1] * self.fpb

    def free_run(self, block: int, offset: int, nfrags: int) -> None:
        row = self.bits[block]
        if any(row[i] == 0 for i in range(offset, offset + nfrags)):
            raise ValueError("double free")
        for i in range(offset, offset + nfrags):
            row[i] = 0

    def free_frags(self) -> int:
        return sum(row.count(0) for row in self.bits)

    def free_in_block(self, block: int) -> int:
        return self.bits[block].count(0)

    def frag_runs(self, block: int):
        runs, start = [], None
        for off, bit in enumerate(self.bits[block]):
            if bit == 0 and start is None:
                start = off
            elif bit and start is not None:
                runs.append((start, off - start))
                start = None
        if start is not None:
            runs.append((start, self.fpb - start))
        return runs

    def run_is_free(self, block: int, offset: int, nfrags: int) -> bool:
        return all(
            self.bits[block][i] == 0 for i in range(offset, offset + nfrags)
        )


class RefRunMap:
    """Free-block set; runs and queries are recomputed from scratch."""

    def __init__(self, nblocks: int):
        self.nblocks = nblocks
        self.free = set(range(nblocks))

    def alloc(self, block: int) -> None:
        if block not in self.free:
            raise ValueError("not free")
        self.free.discard(block)

    def alloc_range(self, start: int, length: int) -> None:
        blocks = range(start, start + length)
        if any(b not in self.free for b in blocks):
            raise ValueError("not free")
        self.free -= set(blocks)

    def free_range(self, start: int, length: int) -> None:
        blocks = range(start, start + length)
        if any(b in self.free for b in blocks):
            raise ValueError("already free")
        self.free |= set(blocks)

    def runs(self):
        out, start = [], None
        for b in range(self.nblocks + 1):
            if b < self.nblocks and b in self.free:
                if start is None:
                    start = b
            elif start is not None:
                out.append((start, b - start))
                start = None
        return out

    def max_run(self) -> int:
        return max((length for _s, length in self.runs()), default=0)

    def first_not_free(self, start: int, length: int):
        for b in range(start, start + length):
            if b not in self.free:
                return b
        return None

    def find_free_block(self, pref: int):
        for i in range(self.nblocks):
            b = (pref + i) % self.nblocks
            if b in self.free:
                return b
        return None

    def find_free_blocks(self, length: int, pref: int, fit: str):
        if all(b in self.free for b in range(pref, pref + length)):
            return pref  # continuation
        adequate = [(s, n) for s, n in self.runs() if n >= length]
        if not adequate:
            return None
        if fit == "firstfit":
            return adequate[0][0]
        # best fit: the shortest adequate run, ties to the first one met
        # scanning cyclically from the run after ``pref``
        cyclic = sorted(adequate, key=lambda r: (r[0] - pref - 1) % self.nblocks)
        return min(cyclic, key=lambda r: r[1])[0]


# ----------------------------------------------------------------------
# Differential drivers
# ----------------------------------------------------------------------


def _assert_bitmap_equal(fast: FragBitmap, ref: RefBitmap) -> None:
    assert fast.free_frags == ref.free_frags()
    for block in range(fast.nblocks):
        assert fast.free_in_block(block) == ref.free_in_block(block)
        assert fast.frag_runs(block) == ref.frag_runs(block)


@pytest.mark.parametrize("seed", [1, 1996, 20260806])
def test_frag_bitmap_differential(seed):
    rng = random.Random(seed)
    nblocks, fpb = 24, 8
    fast = FragBitmap(nblocks, fpb)
    ref = RefBitmap(nblocks, fpb)
    for _step in range(600):
        block = rng.randrange(nblocks)
        op = rng.random()
        if op < 0.45:
            offset = rng.randrange(fpb)
            nfrags = rng.randint(1, fpb - offset)
            args = (block, offset, nfrags)
            method = "alloc_run"
        elif op < 0.85:
            offset = rng.randrange(fpb)
            nfrags = rng.randint(1, fpb - offset)
            args = (block, offset, nfrags)
            method = "free_run"
        else:
            nb = rng.randint(1, min(3, nblocks - block))
            args = (block, nb)
            method = "alloc_block_range"
        fast_err = ref_err = None
        try:
            getattr(fast, method)(*args)
        except ValueError as exc:
            fast_err = exc
        try:
            getattr(ref, method)(*args)
        except ValueError:
            ref_err = ValueError
        assert (fast_err is None) == (ref_err is None), (method, args)
        # the checked run_is_free predicate must agree everywhere
        probe = rng.randrange(nblocks)
        off = rng.randrange(fpb)
        n = rng.randint(1, fpb - off)
        assert fast.run_is_free(probe, off, n) == ref.run_is_free(probe, off, n)
    _assert_bitmap_equal(fast, ref)


def _assert_runmap_equal(fast: FragBitmap, ref: RefRunMap) -> None:
    assert fast.block_runs() == ref.runs()
    assert fast.free_blocks == len(ref.free)
    assert fast.max_block_run() == ref.max_run()


@pytest.mark.parametrize("seed", [2, 42, 19960122])
def test_block_runmap_differential(seed):
    """Whole-block operations and searches of the bitmap against a set."""
    rng = random.Random(seed)
    nblocks, fpb = 64, 8
    fast = FragBitmap(nblocks, fpb)
    ref = RefRunMap(nblocks)
    for _step in range(800):
        op = rng.random()
        block = rng.randrange(nblocks)
        length = rng.randint(1, min(6, nblocks - block))
        if op < 0.35:
            fast_op, ref_op = fast.alloc_run, ref.alloc
            fast_args, ref_args = (block, 0, fpb), (block,)
        elif op < 0.6:
            fast_op, ref_op = fast.alloc_block_range, ref.alloc_range
            fast_args = ref_args = (block, length)
        elif op < 0.85:
            fast_op, ref_op = fast.free_run, ref.free_range
            fast_args, ref_args = (block, 0, fpb), (block, 1)
        else:
            fast_op, ref_op = fast.free_block_range, ref.free_range
            fast_args = ref_args = (block, length)
        fast_err = ref_err = None
        try:
            fast_op(*fast_args)
        except ValueError as exc:
            fast_err = exc
        try:
            ref_op(*ref_args)
        except ValueError:
            ref_err = ValueError
        assert (fast_err is None) == (ref_err is None), (fast_op, fast_args)
        assert fast.block_is_free(block) == (block in ref.free)
        assert fast.free_blocks == len(ref.free)
        probe_len = rng.randint(1, min(6, nblocks - block))
        taken = ref.first_not_free(block, probe_len)
        assert fast.first_taken_block(block, probe_len) == taken
        # the limit may run past the end of the map, as a policy's may
        limit = rng.randint(1, 8)
        taken = ref.first_not_free(block, limit)
        assert fast.free_blocks_at(block, limit) == (
            limit if taken is None else taken - block
        )
        pref = rng.randrange(nblocks)
        assert fast.find_free_block(pref) == ref.find_free_block(pref)
        want = rng.randint(1, 8)
        for fit in ("firstfit", "bestfit"):
            assert fast.find_free_blocks(want, pref, fit) == (
                ref.find_free_blocks(want, pref, fit)
            ), (want, pref, fit)
    _assert_runmap_equal(fast, ref)


# ----------------------------------------------------------------------
# Regression: CylinderGroup.alloc_cluster error contract
# ----------------------------------------------------------------------


class TestAllocRangeContract:
    """A failed cluster allocation names the first block that is not
    wholly free and leaves the group untouched."""

    @pytest.fixture
    def cg(self):
        return CylinderGroup(scaled_params(24 * MB), 0)

    @staticmethod
    def first(cg):
        """Global address of the group's first data block."""
        return cg.base + cg.params.metadata_blocks_per_cg

    @staticmethod
    def state(cg):
        bitmap = cg.bitmap
        return (bitmap.block_runs(), cg.free_blocks, cg.free_frags, cg.rotor)

    def test_start_not_free_names_start(self, cg):
        b = self.first(cg)
        cg.alloc_cluster(b + 4, 3)  # occupy [4, 7)
        with pytest.raises(OutOfSpaceError, match=rf"block {b + 5} is not free"):
            cg.alloc_cluster(b + 5, 2)

    def test_overrun_names_first_allocated_block(self, cg):
        b = self.first(cg)
        cg.alloc_cluster(b + 8, 2)  # occupy [8, 10); [0, 8) stays free
        with pytest.raises(OutOfSpaceError, match=rf"block {b + 8} is not free"):
            cg.alloc_cluster(b + 6, 4)  # blocks 6..9: fails at 8

    def test_overrun_past_end_names_end(self, cg):
        end = cg.base + cg.nblocks
        with pytest.raises(OutOfSpaceError, match="crosses the group boundary"):
            cg.alloc_cluster(end - 2, 4)

    def test_failed_alloc_range_is_atomic(self, cg):
        b = self.first(cg)
        cg.alloc_cluster(b + 8, 2)
        before = self.state(cg)
        with pytest.raises(OutOfSpaceError):
            cg.alloc_cluster(b + 6, 4)
        with pytest.raises(OutOfSpaceError):
            cg.alloc_cluster(cg.base + cg.nblocks - 2, 4)
        assert self.state(cg) == before

    def test_zero_length_is_rejected(self, cg):
        before = self.state(cg)
        with pytest.raises(ValueError):
            cg.alloc_cluster(self.first(cg), 0)
        assert self.state(cg) == before

    def test_max_run_tracks_splits_and_merges(self, cg):
        b = self.first(cg)
        data = cg.nblocks - cg.params.metadata_blocks_per_cg
        assert cg.max_free_run() == data
        cg.alloc_cluster(b + 10, 4)  # [0,10) + [14,data)
        assert cg.max_free_run() == data - 14
        cg.alloc_cluster(b + 20, data - 20)  # [0,10) + [14,20)
        assert cg.max_free_run() == 10
        cg.free_block_range(b + 10, 4)  # rejoin: [0,20)
        assert cg.max_free_run() == 20


# ----------------------------------------------------------------------
# Device pricing: DiskModel against the per-request reference
# ----------------------------------------------------------------------


class RefStats(DiskStats):
    """``DiskStats`` with the per-event accounting methods it used to have."""

    def record(self, kind: IOKind, nbytes: int, elapsed_ms: float) -> None:
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

    def note_seek(self, seek_ms: float, distance: int = 0) -> None:
        self._c_seeks.value += 1
        self._c_seek_ms.value += seek_ms
        if self._g is not None:
            self._g_counters["seeks"].inc()
            self._g_counters["seek_ms"].inc(seek_ms)
            self._g_seek_hist.observe(seek_ms)
            if distance:
                self._g_seek_dist_hist.observe(distance)

    def note_rotation(self, wait_ms: float, lost: bool) -> None:
        self._c_rotation_ms.value += wait_ms
        if lost:
            self._c_lost.value += 1
        if self._g is not None:
            self._g_counters["rotation_ms"].inc(wait_ms)
            if lost:
                self._g_counters["lost_rotations"].inc()
            self._g_rot_hist.observe(wait_ms)

    def note_buffer_hit(self) -> None:
        self._c_buf_hits.value += 1
        if self._g is not None:
            self._g_counters["buffer_hits"].inc()


class RefDiskModel:
    """The per-request call chain ``DiskModel`` used before its loop:
    ``access`` -> ``_service_read``/``_service_write`` ->
    ``_position``/``_media_transfer_ms``, ``TrackBuffer`` method calls,
    and ``split_for_transfer`` for extent lists."""

    def __init__(self, geometry=None, fs_offset_bytes=0,
                 bus_rate_bytes_per_ms=10 * MB / 1000.0, initial_angle=0.0,
                 read_fault_hook=None):
        self.geometry = geometry if geometry is not None else DiskGeometry()
        self.fs_offset = fs_offset_bytes
        self.bus_rate = bus_rate_bytes_per_ms
        self._initial_angle = initial_angle % 1.0
        self.read_fault_hook = read_fault_hook
        self._trace = obs.disktrace_or_none()
        self.reset()

    def reset(self, initial_angle=None):
        if initial_angle is not None:
            self._initial_angle = initial_angle % 1.0
        self.now_ms = 0.0
        self.current_cylinder = 0
        self.buffer = TrackBuffer(
            self.geometry.track_buffer_bytes,
            self.geometry.media_rate_bytes_per_ms,
        )
        self.stats = RefStats()

    def angle_at(self, t_ms):
        return (self._initial_angle + t_ms / self.geometry.rotation_ms) % 1.0

    def idle(self, ms):
        if ms < 0:
            raise ValueError("cannot idle for negative time")
        self.buffer.prefetch(ms)
        self.now_ms += ms

    def drop_caches(self):
        self.buffer.invalidate()

    def access(self, kind, start_byte, nbytes):
        if nbytes <= 0:
            raise ValueError("access of zero bytes")
        if nbytes > self.geometry.max_transfer_bytes:
            raise ValueError("request exceeds hardware maximum")
        if kind is IOKind.READ and self.read_fault_hook is not None:
            self.read_fault_hook(start_byte, nbytes)
        start_time = self.now_ms
        if self._trace is not None:
            pre_cyl = self.current_cylinder
            pre_seek_ms = self.stats.seek_ms
            pre_rot_ms = self.stats.rotation_ms
            pre_lost = self.stats.lost_rotations
            pre_hits = self.stats.buffer_hits
        self.buffer.prefetch(self.geometry.request_overhead_ms)
        self.now_ms += self.geometry.request_overhead_ms

        if kind is IOKind.READ:
            self._service_read(start_byte, nbytes)
        else:
            self._service_write(start_byte, nbytes)

        elapsed = self.now_ms - start_time
        self.stats.record(kind, nbytes, elapsed)
        if self._trace is not None:
            geo = self.geometry
            target_cyl = geo.cylinder_of_sector(geo.sector_of_byte(start_byte))
            seek_ms = self.stats.seek_ms - pre_seek_ms
            rot_ms = self.stats.rotation_ms - pre_rot_ms
            self._trace.record(
                kind=kind.value,
                byte=start_byte,
                nbytes=nbytes,
                cyl=target_cyl,
                seek_cyls=abs(target_cyl - pre_cyl),
                seek_ms=seek_ms,
                rot_ms=rot_ms,
                transfer_ms=elapsed - seek_ms - rot_ms,
                service_ms=elapsed,
                lost_rot=self.stats.lost_rotations > pre_lost,
                buf_hit=self.stats.buffer_hits > pre_hits,
            )
        return elapsed

    def _service_read(self, start_byte, nbytes):
        hit = self.buffer.hit_bytes(start_byte, nbytes)
        if hit:
            self.now_ms += hit / self.bus_rate
            self.stats.note_buffer_hit()
            remaining = nbytes - hit
            if remaining:
                self.now_ms += self._media_transfer_ms(start_byte + hit, remaining)
            self.buffer.note_read(start_byte, nbytes)
            self.buffer.prefetch(0.0)
            return
        if self.buffer.is_sequential(start_byte):
            self.now_ms += self._media_transfer_ms(start_byte, nbytes)
            self.buffer.note_read(start_byte, nbytes)
            return
        self._position(start_byte)
        self.now_ms += self._media_transfer_ms(start_byte, nbytes)
        self.buffer.note_read(start_byte, nbytes)

    def _service_write(self, start_byte, nbytes):
        self.buffer.invalidate()
        self._position(start_byte)
        self.now_ms += self._media_transfer_ms(start_byte, nbytes)

    def _position(self, start_byte):
        geo = self.geometry
        sector = geo.sector_of_byte(start_byte)
        target_cyl = geo.cylinder_of_sector(sector)
        seek = geo.seek_time_ms(self.current_cylinder, target_cyl)
        self.now_ms += seek
        if seek:
            self.stats.note_seek(
                seek, distance=abs(target_cyl - self.current_cylinder)
            )
        self.current_cylinder = target_cyl
        target_angle = geo.rotational_position(sector)
        here = self.angle_at(self.now_ms)
        wait = ((target_angle - here) % 1.0) * geo.rotation_ms
        self.now_ms += wait
        self.stats.note_rotation(wait, lost=wait > 0.9 * geo.rotation_ms)

    def _media_transfer_ms(self, start_byte, nbytes):
        geo = self.geometry
        first_sector = geo.sector_of_byte(start_byte)
        last_sector = geo.sector_of_byte(start_byte + nbytes - 1)
        transfer = nbytes / geo.media_rate_bytes_per_ms
        tracks_crossed = geo.track_of_sector(last_sector) - geo.track_of_sector(
            first_sector
        )
        cyls_crossed = geo.cylinder_of_sector(last_sector) - geo.cylinder_of_sector(
            first_sector
        )
        head_switches = tracks_crossed - cyls_crossed
        transfer += head_switches * geo.head_switch_ms
        transfer += cyls_crossed * geo.seek_track_to_track_ms
        self.current_cylinder = geo.cylinder_of_sector(last_sector)
        return transfer

    def block_to_byte(self, fs_block, block_size):
        return self.fs_offset + fs_block * block_size

    def transfer_extents(self, kind, extents, block_size):
        start = self.now_ms
        for req in split_for_transfer(
            extents, block_size, self.geometry.max_transfer_bytes
        ):
            self.access(kind, self.block_to_byte(req.start, block_size), req.nbytes)
        return self.now_ms - start

    def synchronous_metadata_write(self, fs_block, block_size):
        byte = self.block_to_byte(fs_block, block_size)
        return self.access(IOKind.WRITE, byte, self.geometry.sector_size)


#: Few cylinders, three heads and a 12 KB buffer: trims, head switches
#: and cylinder crossings happen within a handful of requests.
SMALL_GEOMETRY = DiskGeometry(
    cylinders=12, heads=3, sectors_per_track=16, track_buffer_bytes=12 * KB,
)


def _model_state(model):
    buf = model.buffer
    return (
        model.now_ms,
        model.current_cylinder,
        model.stats.to_dict(),
        (buf._valid, buf._start, buf._end, buf._frontier),
    )


def _bad_sector_hook(bad_sectors, sector_size):
    def check(start_byte, nbytes):
        first = start_byte // sector_size
        last = (start_byte + nbytes - 1) // sector_size
        if any(first <= s <= last for s in bad_sectors):
            raise LatentSectorReadError("bad sector", byte=start_byte)
    return check


def _random_ops(rng, geo, steps):
    """A seeded sequence of ``(method, args)`` calls on a disk model."""
    bs = 4 * KB if geo.cylinders < 100 else 8 * KB
    span = geo.capacity_bytes
    last_end = 0
    ops = []
    for _ in range(steps):
        roll = rng.random()
        kind = IOKind.READ if rng.random() < 0.6 else IOKind.WRITE
        if roll < 0.45:
            where = rng.random()
            if where < 0.4:
                start = last_end  # continue the stream
            elif where < 0.6:
                start = max(0, last_end - rng.randrange(1, 16 * KB))
            else:
                start = rng.randrange(span)
            size = rng.choice([
                1, rng.randint(1, 512), rng.randint(1, 64 * KB), 64 * KB,
                geo.sector_size, bs,
            ])
            if rng.random() < 0.03:
                size = rng.choice([0, 64 * KB + 1])
            ops.append(("access", (kind, start, size)))
            last_end = start + size
        elif roll < 0.75:
            exts = []
            block = last_end // bs if rng.random() < 0.5 else rng.randrange(span // bs)
            for _ in range(rng.randint(1, 4)):
                nblocks = rng.randint(1, 40)
                nbytes = nblocks * bs - rng.choice([0, 0, rng.randrange(bs)])
                exts.append(Extent(block, nblocks, nbytes))
                block += nblocks + rng.choice([0, 0, rng.randint(1, 50)])
            if rng.random() < 0.05:
                exts.append(Extent(block, 20, 100))  # second split is 0 bytes
            size = bs if rng.random() < 0.95 else 128 * KB  # > hardware max
            ops.append(("transfer_extents", (kind, exts, size)))
            last_end = block * bs
        elif roll < 0.85:
            ops.append(("synchronous_metadata_write",
                        (rng.randrange(span // bs), bs)))
        elif roll < 0.93:
            ops.append(("idle", (rng.choice([0.0, rng.uniform(0, 20), -1.0]),)))
        elif roll < 0.97:
            ops.append(("drop_caches", ()))
        else:
            ops.append(("reset", (rng.choice([None, rng.random()]),)))
    return ops


def _drive(model_cls, geo, angle, ops, hook):
    """Per-step (result or exception type, model state) of ``ops``."""
    model = model_cls(geo, fs_offset_bytes=3 * KB, initial_angle=angle,
                      read_fault_hook=hook)
    out = []
    for method, args in ops:
        try:
            result = getattr(model, method)(*args)
        except (ValueError, LatentSectorReadError) as exc:
            result = type(exc)
        out.append((method, result, _model_state(model)))
    return out


def _assert_steps_equal(fast, ref):
    assert len(fast) == len(ref)
    for step, (got, want) in enumerate(zip(fast, ref)):
        assert got == want, f"step {step}: {got!r} != {want!r}"


@pytest.mark.parametrize("seed", [3, 1996, 20261017])
@pytest.mark.parametrize("geo", [DiskGeometry(), SMALL_GEOMETRY],
                         ids=["table1", "small"])
def test_disk_model_differential(seed, geo):
    rng = random.Random(seed)
    ops = _random_ops(rng, geo, 400)
    bad = {rng.randrange(geo.capacity_bytes // geo.sector_size)
           for _ in range(2)}
    hook = _bad_sector_hook(bad, geo.sector_size)
    for angle in (0.0, 0.37, 0.999):
        _assert_steps_equal(
            _drive(DiskModel, geo, angle, ops, hook),
            _drive(RefDiskModel, geo, angle, ops, hook),
        )


@pytest.mark.parametrize("geo", [DiskGeometry(), SMALL_GEOMETRY],
                         ids=["table1", "small"])
def test_disk_model_differential_with_telemetry(geo):
    rng = random.Random(7)
    ops = _random_ops(rng, geo, 300)
    hook = _bad_sector_hook({rng.randrange(2048) for _ in range(3)},
                            geo.sector_size)
    captured = []
    for model_cls in (DiskModel, RefDiskModel):
        trace = DiskTrace()
        with obs.session(disktrace=trace) as (registry, _tracer):
            steps = _drive(model_cls, geo, 0.25, ops, hook)
        captured.append((steps, registry.snapshot(), trace.rows()))
    (fast_steps, fast_snap, fast_rows), (ref_steps, ref_snap, ref_rows) = captured
    _assert_steps_equal(fast_steps, ref_steps)
    assert any(name.startswith("disk.") for name in ref_snap)
    assert fast_snap == ref_snap
    assert len(ref_rows) > 100
    assert fast_rows == ref_rows


def test_read_fault_midway_keeps_state_of_served_requests():
    bs = 8 * KB
    geo = DiskGeometry()
    extents = [Extent(100, 20, 20 * bs), Extent(900, 3, 3 * bs - 100)]
    requests = [
        (3 * KB + r.start * bs, r.nbytes)
        for r in split_for_transfer(extents, bs, geo.max_transfer_bytes)
    ]
    for k in range(len(requests)):
        bad_sector = requests[k][0] // geo.sector_size
        fast = DiskModel(geo, fs_offset_bytes=3 * KB, initial_angle=0.3,
                         read_fault_hook=_bad_sector_hook({bad_sector}, 512))
        fast.access(IOKind.READ, 0, 4 * KB)  # a live read-ahead window
        with pytest.raises(LatentSectorReadError):
            fast.transfer_extents(IOKind.READ, extents, bs)
        ref = RefDiskModel(geo, fs_offset_bytes=3 * KB, initial_angle=0.3)
        ref.access(IOKind.READ, 0, 4 * KB)
        for start_byte, nbytes in requests[:k]:
            ref.access(IOKind.READ, start_byte, nbytes)
        assert _model_state(fast) == _model_state(ref), k


def test_invalid_later_split_raises_before_any_request():
    bs = 8 * KB
    # 20 blocks holding 100 bytes: the second 64 KB split carries 0 bytes.
    extents = [Extent(0, 4, 4 * bs), Extent(100, 20, 100)]
    for model_cls in (DiskModel, RefDiskModel):
        model = model_cls(initial_angle=0.6)
        model.access(IOKind.READ, 0, 4 * KB)
        before = _model_state(model)
        with pytest.raises(ValueError):
            model.transfer_extents(IOKind.WRITE, extents, bs)
        assert _model_state(model) == before


# ----------------------------------------------------------------------
# Log-structured file system: frozen copies of the recount-everything
# code (cleaner victim sort, clean-segment scan, daily re-score)
# ----------------------------------------------------------------------


def ref_choose_victims(
    segments: Sequence["SegmentInfo"],
    capacity: int,
    policy: str = "cost-benefit",
    exclude: int = -1,
    count: int = 1,
) -> List["SegmentInfo"]:
    """Pick up to ``count`` victim segments for cleaning.

    ``capacity`` is the segment size in blocks (for the utilization
    term).  Only dirty segments other than ``exclude`` (the log head)
    are candidates; fully empty dirty segments rank first under either
    policy (they are free wins).  Returns fewer than ``count`` — maybe
    none — when there are no candidates.
    """
    if policy not in ("greedy", "cost-benefit"):
        raise ValueError(f"unknown cleaner policy {policy!r}")
    if capacity < 1:
        raise ValueError("segment capacity must be >= 1 block")
    candidates = [
        seg for seg in segments if not seg.clean and seg.index != exclude
    ]
    if not candidates:
        return []
    newest = max(seg.sequence for seg in candidates)

    def greedy_key(seg) -> float:
        return float(seg.live)

    def cost_benefit_key(seg) -> float:
        u = min(1.0, seg.live / capacity)
        if u >= 1.0:
            return float("inf")  # nothing to gain
        age = newest - seg.sequence + 1
        # Negated so that a smaller key = better victim, as with greedy.
        return -((1.0 - u) * age / (1.0 + u))

    key = greedy_key if policy == "greedy" else cost_benefit_key
    return sorted(candidates, key=lambda seg: (key(seg), seg.index))[:count]


class RefLogStructuredFS:
    """A simulated LFS exposing the same lifecycle API as FileSystem.

    Directories carry no placement meaning in an LFS (everything goes to
    the log head), so directory arguments are accepted and recorded but
    do not influence allocation — which is itself the experimental
    point.
    """

    def __init__(self, params: Optional[LFSParams] = None):
        self.params = params if params is not None else LFSParams()
        self.segments = [SegmentInfo(index=i) for i in range(self.params.nsegments)]
        self.inodes: Dict[int, LfsInode] = {}
        #: Live-block reverse map: log address -> (ino, logical block).
        self.owner: Dict[int, Tuple[int, int]] = {}
        self._next_ino = 0
        self._sequence = 0
        self._head_segment = 0
        self._head_offset = 0
        self._cleaning = False
        self.segments[0].clean = False
        self.segments[0].sequence = self._bump()
        # Statistics the LFS literature cares about.
        self.user_blocks_written = 0
        self.cleaner_blocks_copied = 0
        self.cleanings = 0
        #: Cleaner copies performed inside the write path (a user write
        #: had to wait) vs. during announced idle time.
        self.foreground_copies = 0
        self.background_copies = 0
        self._idle_cleaning = False

    # ------------------------------------------------------------------
    # Lifecycle API (mirrors FileSystem where it matters)
    # ------------------------------------------------------------------

    def create_file(
        self, directory: object = None, size: int = 0, when: float = 0.0
    ) -> int:
        """Create a file of ``size`` bytes; returns its inode number."""
        if size < 0:
            raise InvalidRequestError(f"negative file size {size}")
        ino = self._next_ino
        self._next_ino += 1
        inode = LfsInode(ino=ino, ctime=when, mtime=when)
        self.inodes[ino] = inode
        if size:
            try:
                self.append(ino, size, when=when)
            except OutOfSpaceError:
                del self.inodes[ino]
                raise
        return ino

    def append(self, ino: int, nbytes: int, when: float = 0.0) -> None:
        """Grow file ``ino`` by ``nbytes`` (appends blocks to the log)."""
        inode = self._live(ino)
        if nbytes <= 0:
            raise InvalidRequestError(f"append of {nbytes} bytes")
        new_size = inode.size + nbytes
        bs = self.params.block_size
        needed = -(-new_size // bs) - len(inode.blocks)
        self._check_space(needed)
        # Rewriting the (partial) last block moves it to the log head,
        # as any LFS overwrite does.
        if inode.blocks and inode.size % bs != 0:
            last_lbn = len(inode.blocks) - 1
            self._kill(inode.blocks[last_lbn])
            inode.blocks[last_lbn] = self._log_write(ino, last_lbn)
            self.user_blocks_written += 1
        for _ in range(needed):
            lbn = len(inode.blocks)
            inode.blocks.append(self._log_write(ino, lbn))
            self.user_blocks_written += 1
        inode.size = new_size
        inode.mtime = max(inode.mtime, when)

    def overwrite(self, ino: int, when: float = 0.0) -> None:
        """Rewrite a file's contents: every block moves to the log head.

        This is where LFS differs most from FFS — an overwrite relocates
        the file (perfectly sequentially) instead of writing in place.
        """
        inode = self._live(ino)
        for lbn, address in enumerate(inode.blocks):
            self._kill(address)
            inode.blocks[lbn] = self._log_write(ino, lbn)
            self.user_blocks_written += 1
        inode.mtime = max(inode.mtime, when)

    def delete_file(self, ino: int, when: float = 0.0) -> None:
        """Delete file ``ino``; its blocks die in place."""
        inode = self._live(ino)
        for address in inode.blocks:
            self._kill(address)
        del self.inodes[ino]

    def truncate(self, ino: int, when: float = 0.0) -> None:
        """Truncate file ``ino`` to zero length."""
        inode = self._live(ino)
        for address in inode.blocks:
            self._kill(address)
        inode.blocks = []
        inode.size = 0
        inode.mtime = max(inode.mtime, when)

    def files(self) -> List[LfsInode]:
        """All live files."""
        return list(self.inodes.values())

    def files_modified_since(self, cutoff: float) -> List[LfsInode]:
        """Files with ``mtime >= cutoff``."""
        return [i for i in self.files() if i.mtime >= cutoff]

    # ------------------------------------------------------------------
    # State queries
    # ------------------------------------------------------------------

    def live_blocks(self) -> int:
        """Total live data blocks."""
        return len(self.owner)

    def clean_segments(self) -> int:
        """Segments currently clean (excluding the write head)."""
        return sum(1 for seg in self.segments if seg.clean)

    def utilization(self) -> float:
        """Live blocks over usable capacity."""
        return self.live_blocks() / self.params.usable_blocks

    def idle_clean(self, target: Optional[int] = None) -> int:
        """Clean during idle time, up to ``target`` clean segments.

        This is the scheduling question the paper's future work raises
        ("the timing of cleaner execution"): cleaning done here is
        charged as *background* work, so later user writes do not stall
        at the low-water mark.  Returns the number of blocks copied.
        """
        before = self.cleaner_blocks_copied
        goal = target if target is not None else self.params.clean_high_water
        self._idle_cleaning = True
        try:
            if self.clean_segments() < goal:
                self._clean_to(goal)
        finally:
            self._idle_cleaning = False
        return self.cleaner_blocks_copied - before

    def write_amplification(self) -> float:
        """(user + cleaner writes) / user writes — the cleaning tax."""
        if self.user_blocks_written == 0:
            return 1.0
        return (
            self.user_blocks_written + self.cleaner_blocks_copied
        ) / self.user_blocks_written

    # ------------------------------------------------------------------
    # The log
    # ------------------------------------------------------------------

    def _log_write(self, ino: int, lbn: int) -> int:
        """Append one block to the log; returns its address."""
        if self._head_offset >= self.params.blocks_per_segment:
            self._advance_head()
        address = (
            self._head_segment * self.params.blocks_per_segment
            + self._head_offset
        )
        self._head_offset += 1
        segment = self.segments[self._head_segment]
        segment.live += 1
        segment.sequence = self._bump()
        self.owner[address] = (ino, lbn)
        return address

    def _advance_head(self) -> None:
        """Seal the current segment and move to a clean one."""
        if (
            not self._cleaning
            and self.clean_segments() <= self.params.clean_low_water
        ):
            self._clean()
        for candidate in range(self.params.nsegments):
            index = (self._head_segment + 1 + candidate) % self.params.nsegments
            if self.segments[index].clean:
                self.segments[index].clean = False
                self.segments[index].sequence = self._bump()
                self._head_segment = index
                self._head_offset = 0
                return
        raise OutOfSpaceError("log is full: no clean segment available")

    def _clean(self) -> None:
        """Run the cleaner until the high water mark is restored."""
        self._clean_to(self.params.clean_high_water)

    def _clean_to(self, target: int) -> None:
        """Clean until ``target`` clean segments are available."""
        self.cleanings += 1
        self._cleaning = True
        try:
            blocks_per_seg = self.params.blocks_per_segment
            while self.clean_segments() < target:
                victims = ref_choose_victims(
                    self.segments,
                    capacity=blocks_per_seg,
                    policy=self.params.cleaner_policy,
                    exclude=self._head_segment,
                    count=1,
                )
                if not victims:
                    return  # nothing cleanable (everything live or clean)
                victim = victims[0]
                base = victim.index * blocks_per_seg
                live = [
                    (address, self.owner[address])
                    for address in range(base, base + blocks_per_seg)
                    if address in self.owner
                ]
                # A fully live victim cannot net any space; cleaning it
                # would spin forever.
                if len(live) >= blocks_per_seg:
                    return
                for address, (ino, lbn) in live:
                    self._kill(address)
                    new_address = self._log_write(ino, lbn)
                    self.inodes[ino].blocks[lbn] = new_address
                    self.cleaner_blocks_copied += 1
                    if self._idle_cleaning:
                        self.background_copies += 1
                    else:
                        self.foreground_copies += 1
                victim.clean = True
                victim.live = 0
        finally:
            self._cleaning = False

    def _kill(self, address: int) -> None:
        owner = self.owner.pop(address, None)
        if owner is None:
            raise FileNotFoundSimError(f"block {address} has no live owner")
        segment = self.segments[self.params.segment_of_block(address)]
        segment.live -= 1

    def _check_space(self, needed_blocks: int) -> None:
        if needed_blocks <= 0:
            return
        if self.live_blocks() + needed_blocks > self.params.usable_blocks:
            raise OutOfSpaceError(
                f"allocating {needed_blocks} blocks would exceed the "
                f"usable capacity"
            )

    def _bump(self) -> int:
        self._sequence += 1
        return self._sequence

    def _live(self, ino: int) -> LfsInode:
        try:
            return self.inodes[ino]
        except KeyError:
            raise FileNotFoundSimError(f"inode {ino} is not live") from None


class RefLfsReplayer:
    """Replays an aging workload against a log-structured file system.

    ``idle_clean_gap_days`` is the future-work knob: when the workload
    goes quiet for at least that long (fractional days), the replayer
    lets the cleaner run in the gap, so the copying is charged as
    background work instead of stalling a later write at the low-water
    mark.  ``None`` (the default) leaves cleaning purely on-demand.
    """

    def __init__(
        self,
        fs: RefLogStructuredFS,
        label: str = "LFS",
        idle_clean_gap_days: Optional[float] = None,
    ) -> None:
        self.fs = fs
        self.label = label
        self.idle_clean_gap_days = idle_clean_gap_days

    def replay(
        self, workload: Workload, sample_days: bool = True
    ) -> ReplayResult:
        """Apply every operation; returns a ReplayResult-like record.

        Iterates the workload's columns, as the FFS replayer does.
        """
        result = ReplayResult(
            fs=self.fs,  # type: ignore[arg-type]
            timeline=Timeline(label=self.label),
        )
        fs = self.fs
        gap = self.idle_clean_gap_days
        dirs = workload.dir_table
        live = result.live_files
        current_day = 0
        last_time = 0.0
        ino: Optional[int]
        for code, when, file_id, size, dir_id in zip(
            workload.op, workload.time, workload.file_id, workload.size,
            workload.dir_id,
        ):
            if gap is not None and when - last_time >= gap:
                fs.idle_clean()
            last_time = when
            while sample_days and int(when) > current_day:
                self._sample(result, current_day)
                current_day += 1
            if code == 0:  # create
                try:
                    ino = fs.create_file(dirs[dir_id], size, when=when)
                except OutOfSpaceError:
                    result.skipped_no_space += 1
                    continue
                live[file_id] = ino
                result.creates += 1
                result.bytes_written += size
            elif code == 1:  # append
                ino = live.get(file_id)
                if ino is None:
                    continue
                try:
                    fs.append(ino, size, when=when)
                except OutOfSpaceError:
                    result.skipped_no_space += 1
                    continue
                result.bytes_written += size
            else:  # delete
                ino = live.pop(file_id, None)
                if ino is None:
                    continue
                fs.delete_file(ino, when=when)
                result.deletes += 1
            result.ops_applied += 1
        if sample_days:
            self._sample(result, current_day)
        return result

    def _sample(self, result: ReplayResult, day: int) -> None:
        # LFS inodes offer the data_block_list() the scorer reads.
        score = score_file_set(self.fs.files())  # type: ignore[arg-type]
        result.timeline.add(
            DailySample(
                day=day,
                layout_score=1.0 if score is None else score,
                utilization=self.fs.utilization(),
                live_files=len(self.fs.files()),
                ops_applied=result.ops_applied,
            )
        )


#: Eight-megabyte LFS with 128 KB segments: the cleaner runs within a
#: few dozen writes and keeps running.
CLEANER_HEAVY = LFSParams(
    size_bytes=8 * MB, segment_bytes=128 * KB,
    clean_low_water=3, clean_high_water=6,
)


def _lfs_state(fs):
    """Every observable of an LFS, for exact comparison."""
    return (
        sorted(
            (ino, n.size, n.ctime, n.mtime, list(n.blocks))
            for ino, n in fs.inodes.items()
        ),
        sorted(fs.owner.items()),
        [(g.index, g.live, g.sequence, g.clean) for g in fs.segments],
        (fs._head_segment, fs._head_offset, fs._sequence, fs._next_ino),
        (fs.user_blocks_written, fs.cleaner_blocks_copied, fs.cleanings,
         fs.foreground_copies, fs.background_copies),
        fs.clean_segments(),
    )


def _random_lfs_ops(rng, steps):
    """A seeded ``(method, args)`` sequence over the LFS lifecycle API."""
    sizes = [0, 1, 4 * KB, 8 * KB, 12 * KB, 56 * KB, 200 * KB]
    ops = []
    for step in range(steps):
        roll = rng.random()
        ino = rng.randrange(step // 3 + 1)  # sometimes not live
        when = step / 10
        if roll < 0.35:
            ops.append(("create_file", (None, rng.choice(sizes), when)))
        elif roll < 0.6:
            ops.append(("append", (ino, rng.choice(sizes), when)))
        elif roll < 0.7:
            ops.append(("overwrite", (ino, when)))
        elif roll < 0.78:
            ops.append(("truncate", (ino, when)))
        elif roll < 0.95:
            ops.append(("delete_file", (ino, when)))
        else:
            ops.append(("idle_clean", (rng.choice([None, 4, 10]),)))
    return ops


def _lfs_step(fs, method, args):
    """(result or exception type, state) after one call on ``fs``."""
    try:
        result = getattr(fs, method)(*args)
    except (FileNotFoundSimError, InvalidRequestError,
            OutOfSpaceError) as exc:
        result = type(exc)
    return result, _lfs_state(fs)


@pytest.mark.parametrize("seed", [5, 1996, 20261017])
@pytest.mark.parametrize("policy", ["greedy", "cost-benefit"])
def test_lfs_differential(seed, policy):
    params = dataclasses.replace(CLEANER_HEAVY, cleaner_policy=policy)
    fast, ref = LogStructuredFS(params), RefLogStructuredFS(params)
    ops = _random_lfs_ops(random.Random(seed), 600)
    for step, (method, args) in enumerate(ops):
        assert _lfs_step(fast, method, args) == _lfs_step(ref, method, args), (
            f"step {step}: {method}{args!r}"
        )
        countable = fast.countable_pairs
        score = fast.optimal_pairs / countable if countable else None
        assert score == score_file_set(ref.files()), step  # type: ignore[arg-type]
    assert ref.cleanings > 0 and ref.cleaner_blocks_copied > 0


@pytest.mark.parametrize("policy", ["greedy", "cost-benefit"])
@pytest.mark.parametrize("gap", [None, 0.02])
def test_lfs_replay_differential(aging_artifacts, tiny_params, policy, gap):
    workload = aging_artifacts.reconstructed
    params = LFSParams(
        size_bytes=tiny_params.actual_size_bytes, segment_bytes=128 * KB,
        cleaner_policy=policy,
    )
    fast = LfsReplayer(LogStructuredFS(params), idle_clean_gap_days=gap)
    ref = RefLfsReplayer(
        RefLogStructuredFS(params), idle_clean_gap_days=gap
    )
    got, want = fast.replay(workload), ref.replay(workload)
    assert got.timeline.samples == want.timeline.samples
    assert len(want.timeline.samples) == workload.days()
    assert _lfs_state(fast.fs) == _lfs_state(ref.fs)
    assert (got.creates, got.deletes, got.ops_applied, got.skipped_no_space,
            got.bytes_written, got.live_files) == (
        want.creates, want.deletes, want.ops_applied, want.skipped_no_space,
        want.bytes_written, want.live_files)
    assert ref.fs.cleaner_blocks_copied > 0
    if gap is not None:
        assert ref.fs.background_copies > 0
