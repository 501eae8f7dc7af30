"""Storage backends: one protocol, two substrates.

Everything above the device — benchmarks, experiments, chaos, fault
injection — prices I/O through the ``access(kind, start_byte, nbytes)
-> elapsed_ms`` contract that :class:`~repro.disk.model.DiskModel`
defined and :class:`~repro.ssd.model.SSDModel` now also satisfies.
This module names that contract (:class:`StorageModel`) and builds the
right model via :func:`make_storage`.

The backend is a plain name (``"disk"`` or ``"ssd"``) passed down from
the CLI's ``--backend`` flag as an argument: experiments memoize on it,
so one process can run both devices side by side, and parallel workers
receive it with each task.  The default is ``disk``, and the disk path
constructs exactly what the pre-backend code did — same types, same
arguments — so default behaviour is byte-identical.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol, Sequence, Tuple

from repro.disk.geometry import DiskGeometry
from repro.disk.model import DiskModel, IOKind
from repro.disk.request import Extent
from repro.errors import InvalidRequestError
from repro.ssd.config import SSDGeometry
from repro.ssd.model import SSDModel

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "StorageModel",
    "StorageStats",
    "make_storage",
]

#: Recognised backend names, in presentation order.
BACKENDS: Tuple[str, ...] = ("disk", "ssd")
DEFAULT_BACKEND = "disk"


class StorageStats(Protocol):
    """What backend-generic code may ask of a model's ``stats``."""

    def to_dict(self) -> "dict[str, float]": ...

    def throughput_bytes_per_sec(self) -> float: ...


class StorageModel(Protocol):
    """The device contract both backends satisfy.

    The timing substrate behind every throughput number: a simulated
    clock (``now_ms``), request-level pricing (:meth:`access`), the
    extent-level helpers the benchmarks drive, and the
    ``read_fault_hook`` seam fault injection uses.
    """

    now_ms: float
    read_fault_hook: Optional[Callable[[int, int], None]]

    @property
    def stats(self) -> StorageStats: ...  # noqa: E704  (protocol member)

    def reset(self, initial_angle: "float | None" = None) -> None: ...

    def idle(self, ms: float) -> None: ...

    def drop_caches(self) -> None: ...

    def access(self, kind: IOKind, start_byte: int, nbytes: int) -> float: ...

    def block_to_byte(self, fs_block: int, block_size: int) -> int: ...

    def transfer_extents(
        self, kind: IOKind, extents: Sequence[Extent], block_size: int
    ) -> float: ...

    def synchronous_metadata_write(
        self, fs_block: int, block_size: int
    ) -> float: ...


def _check(backend: str) -> str:
    if backend not in BACKENDS:
        raise InvalidRequestError(
            f"unknown storage backend {backend!r} "
            f"(choose from {', '.join(BACKENDS)})"
        )
    return backend


def make_storage(
    geometry: "DiskGeometry | None" = None,
    initial_angle: float = 0.0,
    backend: str = DEFAULT_BACKEND,
) -> StorageModel:
    """Construct a storage model for ``backend``.

    ``geometry`` is always the *disk* geometry the call site already
    has; the SSD backend derives a flash device of the same logical
    capacity from it, and ignores ``initial_angle`` (no platter — the
    repetition jitter the angle exists to produce is structurally zero
    on flash).
    """
    if _check(backend) == "ssd":
        disk_geometry = geometry if geometry is not None else DiskGeometry()
        return SSDModel(SSDGeometry.for_bytes(disk_geometry.capacity_bytes))
    return DiskModel(geometry, initial_angle=initial_angle)
