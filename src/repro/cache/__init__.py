"""``repro.cache`` — a persistent store for expensive artifacts.

Aging a file system means replaying months of simulated activity, and
the experiment suite needs several agings (two policies plus the
ground-truth "Real" run) before it can measure anything.  Within one
process :mod:`repro.experiments.config` memoizes them with
``lru_cache``; this package extends that memoization *across* processes
by writing each aged :class:`~repro.aging.replay.ReplayResult` to disk,
so a warm second ``repro-ffs experiment all`` (or a parallel worker, or
an ablation at a stock setting) skips re-aging entirely.

Keying and invalidation
-----------------------

Every entry is stored under a SHA-256 content hash (:func:`replay_key`)
of the aging configuration (geometry, days, seed, activity levels), the
file-system parameters replayed onto, the workload flavour, the policy,
and the cache/image format versions (:data:`FORMAT_VERSION`) — nothing
else.  Change any input — or upgrade to a release whose on-disk format
differs — and the key changes, so stale entries are never read again.
The full key payload is also stored *inside* each entry and compared on
load, so even a hash collision (or a hand-edited file) falls back to a
recompute instead of a wrong answer.

Location and switches
---------------------

* default directory: ``.repro-cache/`` under the current directory;
* ``REPRO_CACHE_DIR=/path`` (env) or ``--cache-dir`` (CLI) move it;
* ``REPRO_CACHE=off`` (env) or ``--no-cache`` (CLI) disable it;
* ``repro-ffs cache ls`` / ``repro-ffs cache clear`` inspect and drop it.

The store is best-effort: unreadable, corrupt, or unwritable entries
degrade to a recompute, never to an error.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional

from repro.cache.keys import CacheKey, make_key, replay_key
from repro.cache.store import SCHEMA, ArtifactCache, CacheEntry, FORMAT_VERSION

__all__ = [
    "ArtifactCache",
    "CacheEntry",
    "CacheKey",
    "FORMAT_VERSION",
    "SCHEMA",
    "ENV_DIR",
    "ENV_SWITCH",
    "DEFAULT_DIR",
    "make_key",
    "replay_key",
    "configure",
    "is_enabled",
    "directory",
    "store",
]

ENV_DIR = "REPRO_CACHE_DIR"
ENV_SWITCH = "REPRO_CACHE"
DEFAULT_DIR = ".repro-cache"

_OFF_VALUES = frozenset({"0", "off", "false", "no", "disabled"})

#: Process-wide overrides set by :func:`configure` (the CLI flags).
_enabled_override: Optional[bool] = None
_dir_override: Optional[str] = None


def configure(
    enabled: Optional[bool] = None, directory: Optional[str] = None
) -> None:
    """Install process-wide overrides (``None`` defers to the environment).

    The CLI calls this once per invocation from ``--no-cache`` /
    ``--cache-dir``; embedders and tests may call it directly.
    """
    global _enabled_override, _dir_override
    _enabled_override = enabled
    _dir_override = directory


def is_enabled() -> bool:
    """Whether the persistent cache is active for this process."""
    if _enabled_override is not None:
        return _enabled_override
    return os.environ.get(ENV_SWITCH, "").strip().lower() not in _OFF_VALUES


def directory() -> Path:
    """The cache directory currently in effect (may not exist yet)."""
    if _dir_override is not None:
        return Path(_dir_override)
    return Path(os.environ.get(ENV_DIR) or DEFAULT_DIR)


def store() -> Optional[ArtifactCache]:
    """The active cache, or ``None`` when caching is disabled."""
    if not is_enabled():
        return None
    return ArtifactCache(directory())
