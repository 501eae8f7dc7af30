"""Content-hash keys for cached artifacts.

A key is the SHA-256 digest of a canonical JSON encoding of every input
that determines the artifact, plus the format versions of the layers
that serialize it.  Equal inputs hash equally across processes and
machines; any drift — one more simulated day, a different seed, a new
on-disk format — produces a different digest and therefore a miss.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Optional

from repro.aging.generator import AgingConfig
from repro.ffs import image
from repro.ffs.params import FSParams


@dataclass(frozen=True)
class CacheKey:
    """A hashed cache key plus the payload that produced it."""

    #: Filename stem hint, e.g. ``"aged-small-realloc"`` — human-facing
    #: only; uniqueness comes from the digest.
    hint: str
    #: Hex SHA-256 of the canonical payload encoding.
    digest: str
    #: The full key payload, stored inside each entry and compared on
    #: load so collisions and hand-edits degrade to a recompute.
    payload: Dict[str, object]


def make_key(hint: str, **fields: object) -> CacheKey:
    """Build a key from JSON-serializable ``fields``."""
    from repro.cache.store import FORMAT_VERSION

    payload: Dict[str, object] = {"cache_format": FORMAT_VERSION}
    payload.update(fields)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return CacheKey(hint=hint, digest=digest, payload=payload)


def replay_key(
    preset_name: str,
    config: AgingConfig,
    workload: str,
    policy: str,
    params: Optional[FSParams] = None,
) -> CacheKey:
    """Key for one aged file system (a ``ReplayResult``).

    The digest covers exactly what determines the aging: ``config`` (the
    workload built), ``params`` (the file system replayed onto;
    ``config.params`` when ``None``), the ``workload`` flavour, the
    ``policy`` and the format versions.  The preset name is a filename
    hint only, and the storage backend is absent: aging never touches
    the device, so disk and flash runs share one aged file system.
    """
    return make_key(
        f"aged-{preset_name}-{workload}-{policy}",
        kind="replay",
        image_format=image.FORMAT_VERSION,
        aging=dataclasses.asdict(config),
        params=dataclasses.asdict(config.params if params is None else params),
        workload=workload,
        policy=policy,
    )
