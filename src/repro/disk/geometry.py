"""Physical disk geometry (Table 1 of the paper).

The geometry maps a linear *file-system block* address onto a physical
(cylinder, head, sector) position so the timing model can charge seeks
proportional to cylinder distance and compute rotational offsets.

The benchmark disk is a Seagate ST32430N: 2.1 GB, 5411 RPM, 3992 cylinders,
9 heads, an average of 116 sectors per track (the real drive is zoned; we
model the average, which is what FFS itself assumed), 512 KB track buffer,
and an 11 ms average seek.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.units import KB, SECTOR_SIZE


@dataclass(frozen=True)
class DiskGeometry:
    """Geometry and mechanical parameters of the modelled disk.

    Attributes mirror Table 1.  ``seek_avg_ms`` is the manufacturer average
    seek; single-cylinder and full-stroke seeks are derived from it with the
    standard three-segment seek-curve approximation.
    """

    cylinders: int = 3992
    heads: int = 9
    sectors_per_track: int = 116
    rpm: int = 5411
    sector_size: int = SECTOR_SIZE
    track_buffer_bytes: int = 512 * KB
    seek_avg_ms: float = 11.0
    #: Maximum size of a single transfer the host can issue (Section 5.1:
    #: "the maximum disk transfer size imposed by the hardware (64 KB)").
    max_transfer_bytes: int = 64 * KB
    #: Fixed per-request overhead (SCSI command processing + host driver),
    #: in milliseconds.  Calibrated so small-file throughput lands in the
    #: paper's range.
    request_overhead_ms: float = 0.5
    #: Head-switch time in milliseconds (settling onto the next surface).
    head_switch_ms: float = 1.0
    #: Single-cylinder (track-to-track) seek time in milliseconds.
    seek_track_to_track_ms: float = 1.7

    # Derived quantities -------------------------------------------------

    @cached_property
    def rotation_ms(self) -> float:
        """Time of one full platter rotation in milliseconds."""
        return 60_000.0 / self.rpm

    @cached_property
    def track_bytes(self) -> int:
        """Capacity of one track in bytes."""
        return self.sectors_per_track * self.sector_size

    @cached_property
    def cylinder_bytes(self) -> int:
        """Capacity of one cylinder (all surfaces) in bytes."""
        return self.track_bytes * self.heads

    @cached_property
    def capacity_bytes(self) -> int:
        """Total formatted capacity in bytes."""
        return self.cylinder_bytes * self.cylinders

    @cached_property
    def media_rate_bytes_per_ms(self) -> float:
        """Sustained media transfer rate under the head, bytes/ms."""
        return self.track_bytes / self.rotation_ms

    @cached_property
    def full_stroke_seek_ms(self) -> float:
        """Approximate full-stroke seek derived from the average seek."""
        # Average seek is roughly the time to cover 1/3 of the stroke;
        # full stroke lands near 2x the average for drives of this era.
        return 2.0 * self.seek_avg_ms

    @cached_property
    def sectors_per_cylinder(self) -> int:
        """Sectors on one cylinder (all surfaces)."""
        return self.sectors_per_track * self.heads

    # Address mapping ----------------------------------------------------

    def sector_of_byte(self, byte_offset: int) -> int:
        """Linear sector number containing ``byte_offset``."""
        return byte_offset // self.sector_size

    def cylinder_of_sector(self, sector: int) -> int:
        """Cylinder number of a linear sector address."""
        return sector // self.sectors_per_cylinder

    def track_of_sector(self, sector: int) -> int:
        """Global track number (cylinder*heads + head) of a sector."""
        return sector // self.sectors_per_track

    def rotational_position(self, sector: int) -> float:
        """Angular position of ``sector`` as a fraction of a rotation.

        Tracks are *skewed*: sector 0 of each successive track is offset
        by the head-switch time (and each cylinder by the track-to-track
        seek), so a transfer that crosses a track boundary continues at
        media rate instead of losing a rotation — standard formatting
        for drives of this era, and the assumption the transfer-time
        accounting makes.  Keeping the two consistent is what makes a
        back-to-back sequential write *just miss* its next sector and
        wait out nearly a full rotation.

        ``DiskModel``'s pricing loop computes this inline; the
        differential test in ``tests/test_perf_fastpaths.py`` keeps the
        two in step.
        """
        track = sector // self.sectors_per_track
        cylinder = self.cylinder_of_sector(sector)
        head_switches = track - cylinder
        base = (sector % self.sectors_per_track) / self.sectors_per_track
        skew = (
            head_switches * self.head_switch_ms
            + cylinder * self.seek_track_to_track_ms
        ) / self.rotation_ms
        return (base + skew) % 1.0

    def seek_time_ms(self, from_cyl: int, to_cyl: int) -> float:
        """Seek time between two cylinders using a sqrt + linear curve.

        The classic approximation: short seeks are dominated by
        acceleration (``~ sqrt(distance)``), long seeks by coast
        (``~ distance``), with the curve anchored so a 1/3-stroke seek
        costs ``seek_avg_ms`` and a 1-cylinder seek costs
        ``seek_track_to_track_ms``.  ``DiskModel``'s pricing loop
        computes this inline, kept in step by the same differential test
        as :meth:`rotational_position`.
        """
        distance = abs(to_cyl - from_cyl)
        if distance == 0:
            return 0.0
        if distance == 1:
            return self.seek_track_to_track_ms
        third = max(1, self.cylinders // 3)
        if distance <= third:
            # sqrt segment from (1, track_to_track) to (third, avg)
            span = (distance - 1) / (third - 1) if third > 1 else 1.0
            return (
                self.seek_track_to_track_ms
                + (self.seek_avg_ms - self.seek_track_to_track_ms) * span**0.5
            )
        # linear segment from (third, avg) to (full stroke, full_stroke)
        span = (distance - third) / max(1, self.cylinders - third)
        return self.seek_avg_ms + (self.full_stroke_seek_ms - self.seek_avg_ms) * span


#: The exact configuration of Table 1, importable by name.
SEAGATE_ST32430N = DiskGeometry()
