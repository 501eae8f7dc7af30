"""Flash device parameters: the SSD counterpart of ``DiskGeometry``.

Where :class:`~repro.disk.geometry.DiskGeometry` describes Table 1's
Seagate ST32430N mechanically (cylinders, rotation, seek curve), this
describes a small page-mapped SSD electrically: page/block granularity,
per-operation flash latencies, and the FTL knobs (over-provisioning,
GC trigger, mapping-cache size) that determine garbage-collection and
write-amplification behaviour.

The latencies model an early SLC drive: reads stream at ~48 MB/s (a
page read every 60 µs behind a 200 MB/s bus), writes at ~11 MB/s
(program time dominates) — roughly an order of magnitude above the
ST32430N's 5.4 MB/s media rate, as flash genuinely was.  The point of
the comparison is never raw speed, though: on this backend *position
is free* — there is no analogue of the seek or the lost rotation — and
what replaces them is the erase-before-write constraint the FTL
exists to hide.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict

from repro import schemas
from repro.errors import InvalidRequestError
from repro.units import KB, MB, SECTOR_SIZE

#: Default logical capacity: the formatted capacity of the paper's
#: ST32430N (3992 cylinders x 9 heads x 116 sectors x 512 bytes), so a
#: default-constructed SSD is a drop-in twin of the default disk.
DEFAULT_LOGICAL_BYTES = 2_133_835_776


@dataclass(frozen=True)
class SSDGeometry:
    """Flash layout and timing parameters of the modelled SSD.

    ``nblocks`` counts *physical* erase blocks, including the
    over-provisioned spares the host never sees; ``logical_bytes`` is
    the capacity exported to the file system.  Construct with
    :meth:`for_bytes` to size a device for a given logical capacity.
    """

    #: Flash page: unit of read and program.
    page_size: int = 4096
    #: Pages per erase block (64 x 4 KB = 256 KB erase block).
    pages_per_block: int = 64
    #: Physical erase blocks (the default matches
    #: ``DEFAULT_LOGICAL_BYTES`` at 7% over-provisioning: 8140 logical
    #: blocks + 570 spares; see :meth:`for_bytes`).
    nblocks: int = 8710
    #: Capacity exported to the host in bytes.
    logical_bytes: int = DEFAULT_LOGICAL_BYTES
    #: Flash page read latency (ms).
    read_page_ms: float = 0.06
    #: Flash page program latency (ms).
    program_page_ms: float = 0.35
    #: Erase-block erase latency (ms) — the cost GC pays per victim.
    erase_block_ms: float = 2.0
    #: Host interface rate (bytes/ms); transfers pipeline behind it.
    bus_rate_bytes_per_ms: float = 200 * MB / 1000.0
    #: Fixed per-request overhead (command processing), ms.
    request_overhead_ms: float = 0.02
    #: GC starts when the free-block pool drops to this many blocks.
    gc_free_block_threshold: int = 4
    #: DFTL-style mapping cache: resident translation pages.
    map_cache_tpages: int = 64
    #: Mapping entries per translation page (4 KB page / 4-byte entry).
    map_entries_per_tpage: int = 1024
    #: Same host transfer cap as the disk path (Section 5.1's 64 KB);
    #: higher layers split requests identically for both backends.
    max_transfer_bytes: int = 64 * KB
    #: Sector size for synchronous metadata writes (unit of the
    #: ``synchronous_metadata_write`` contract, not of flash access).
    sector_size: int = SECTOR_SIZE

    def __post_init__(self) -> None:
        if self.page_size <= 0 or self.pages_per_block <= 0:
            raise InvalidRequestError(
                f"ssd geometry needs positive page/block sizes: {self}"
            )
        if self.nblocks * self.pages_per_block * self.page_size < self.logical_bytes:
            raise InvalidRequestError(
                f"ssd geometry exports {self.logical_bytes} logical bytes "
                f"but has only {self.nblocks} x {self.pages_per_block} x "
                f"{self.page_size} physical bytes"
            )
        if self.spare_blocks < self.gc_free_block_threshold + 2:
            raise InvalidRequestError(
                f"ssd geometry has {self.spare_blocks} spare blocks; GC "
                f"needs at least gc_free_block_threshold + 2 = "
                f"{self.gc_free_block_threshold + 2} to make progress"
            )

    # Derived quantities -------------------------------------------------

    @cached_property
    def logical_pages(self) -> int:
        """Logical pages the host can address (capacity / page size)."""
        return -(-self.logical_bytes // self.page_size)

    @cached_property
    def physical_pages(self) -> int:
        """Total flash pages including over-provisioned spares."""
        return self.nblocks * self.pages_per_block

    @cached_property
    def spare_blocks(self) -> int:
        """Erase blocks beyond what the logical capacity requires."""
        logical_blocks = -(-self.logical_pages // self.pages_per_block)
        return self.nblocks - logical_blocks

    @cached_property
    def capacity_bytes(self) -> int:
        """Host-visible capacity — the disk-geometry-compatible name."""
        return self.logical_bytes

    # Construction -------------------------------------------------------

    @classmethod
    def for_bytes(
        cls,
        logical_bytes: int,
        over_provisioning: float = 0.07,
        **overrides: object,
    ) -> "SSDGeometry":
        """Size a device exporting ``logical_bytes``.

        ``over_provisioning`` is the spare fraction (0.07 = 7%, a
        consumer-drive figure); the spare pool is floored so GC can
        always run.  Other fields pass through as overrides.
        """
        if logical_bytes <= 0:
            raise InvalidRequestError(
                f"ssd logical capacity must be positive, got {logical_bytes}"
            )
        # Dataclass defaults are readable as class attributes, so the
        # sizing math sees any overridden granularity/threshold without
        # constructing a throwaway (and invalid) instance first.
        page_size = int(overrides.get("page_size", cls.page_size))
        pages_per_block = int(
            overrides.get("pages_per_block", cls.pages_per_block)
        )
        threshold = int(
            overrides.get(
                "gc_free_block_threshold", cls.gc_free_block_threshold
            )
        )
        logical_pages = -(-logical_bytes // page_size)
        logical_blocks = -(-logical_pages // pages_per_block)
        spares = max(
            threshold + 2, int(round(logical_blocks * over_provisioning))
        )
        fields: Dict[str, object] = dict(overrides)
        fields["nblocks"] = logical_blocks + spares
        fields["logical_bytes"] = logical_bytes
        return cls(**fields)  # type: ignore[arg-type]

    # Serialisation ------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Schema-stamped parameter record for manifests and reports."""
        return {
            "schema": schemas.SSD_CONFIG,
            "page_size": self.page_size,
            "pages_per_block": self.pages_per_block,
            "nblocks": self.nblocks,
            "logical_bytes": self.logical_bytes,
            "spare_blocks": self.spare_blocks,
            "read_page_ms": self.read_page_ms,
            "program_page_ms": self.program_page_ms,
            "erase_block_ms": self.erase_block_ms,
            "bus_rate_bytes_per_ms": self.bus_rate_bytes_per_ms,
            "request_overhead_ms": self.request_overhead_ms,
            "gc_free_block_threshold": self.gc_free_block_threshold,
            "map_cache_tpages": self.map_cache_tpages,
            "map_entries_per_tpage": self.map_entries_per_tpage,
            "max_transfer_bytes": self.max_transfer_bytes,
        }
