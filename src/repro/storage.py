"""Storage backends: one protocol, two substrates.

Everything above the device — benchmarks, experiments, chaos, fault
injection — prices I/O through the ``serve(kind, requests) ->
elapsed_ms`` contract, a list of ``(start_byte, nbytes)`` requests
served back to back, that :class:`~repro.disk.model.DiskModel` and
:class:`~repro.ssd.model.SSDModel` both satisfy.
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

from typing import Any, Protocol, Sequence, Tuple

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


class StorageGeometry(Protocol):
    """What backend-generic code may ask of a model's ``geometry``."""

    @property
    def sector_size(self) -> int: ...  # noqa: E704  (protocol member)

    @property
    def max_transfer_bytes(self) -> int: ...  # noqa: E704  (protocol member)


class StorageModel(Protocol):
    """The device contract both backends satisfy.

    The timing substrate behind every throughput number: a simulated
    clock (``now_ms``), request-stream pricing (:meth:`serve`, with
    :meth:`access` for one request) and the extent-level helpers.
    ``fs_offset`` and the geometry's transfer limit let callers build
    request lists once (:func:`~repro.disk.request.byte_requests`) and
    serve them many times.  ``serve`` is :meth:`plan` then :meth:`clock`: a list served
    at several initial angles is planned once, on a fresh model, and
    clocked on a fresh model per angle.
    """

    now_ms: float
    fs_offset: int

    @property
    def geometry(self) -> StorageGeometry: ...  # noqa: E704  (protocol member)

    @property
    def stats(self) -> StorageStats: ...  # noqa: E704  (protocol member)

    def reset(self, initial_angle: "float | None" = None) -> None: ...

    def idle(self, ms: float) -> None: ...

    def drop_caches(self) -> None: ...

    def access(self, kind: IOKind, start_byte: int, nbytes: int) -> float: ...

    def serve(
        self, kind: IOKind, requests: Sequence[Tuple[int, int]]
    ) -> float: ...

    # A plan is opaque: only a model of the backend that made it can
    # clock it (the disk model also refuses another head state).
    def plan(
        self, kind: IOKind, requests: Sequence[Tuple[int, int]]
    ) -> Any: ...

    def clock(self, plan: Any) -> float: ...

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
