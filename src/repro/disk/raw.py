"""Raw-disk sequential throughput — the reference lines in Figure 4.

The paper plots "Raw Read Throughput" and "Raw Write Throughput" alongside
the file-system numbers.  Raw access bypasses the file system entirely:
maximal 64 KB requests issued back to back over a contiguous byte range.
Raw reads stream at close to media rate thanks to the track buffer; raw
writes lose a rotation between every pair of requests, which is why the
paper's raw *write* line sits well below its raw *read* line — and why a
slightly imperfect layout can beat it.
"""

from __future__ import annotations

# Module-style import: repro.storage imports repro.disk submodules, so a
# from-import here would trip the package-initialisation cycle.
from repro import storage
from repro.disk.geometry import DiskGeometry
from repro.disk.model import IOKind


def _raw_throughput(
    kind: IOKind,
    total_bytes: int,
    geometry: "DiskGeometry | None",
    initial_angle: float,
    backend: str,
) -> float:
    geometry = geometry if geometry is not None else DiskGeometry()
    model = storage.make_storage(geometry, initial_angle, backend=backend)
    chunk = geometry.max_transfer_bytes
    offset = 0
    remaining = total_bytes
    while remaining > 0:
        take = min(chunk, remaining)
        model.access(kind, offset, take)
        offset += take
        remaining -= take
    seconds = model.now_ms / 1000.0
    return total_bytes / seconds if seconds else 0.0


def raw_read_throughput(
    total_bytes: int,
    geometry: "DiskGeometry | None" = None,
    initial_angle: float = 0.0,
    backend: str = storage.DEFAULT_BACKEND,
) -> float:
    """Sequential raw-read throughput in bytes/second."""
    return _raw_throughput(
        IOKind.READ, total_bytes, geometry, initial_angle, backend
    )


def raw_write_throughput(
    total_bytes: int,
    geometry: "DiskGeometry | None" = None,
    initial_angle: float = 0.0,
    backend: str = storage.DEFAULT_BACKEND,
) -> float:
    """Sequential raw-write throughput in bytes/second."""
    return _raw_throughput(
        IOKind.WRITE, total_bytes, geometry, initial_angle, backend
    )
