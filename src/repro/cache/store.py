"""The on-disk artifact store and the ReplayResult (de)serializer.

Layout: one JSON file per entry, named ``<hint>-<digest16>.json``, in a
flat directory.  Each file carries the schema tag, the *full* key
payload (verified on load), a creation timestamp, and the artifact
payload itself.  Writes are atomic (temp file + ``os.replace``) so a
crashed or concurrent run can never leave a half-written entry that a
later run would trust; concurrent writers of the same key both write
the same bytes, so last-replace-wins is safe.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro import obs
from repro.aging.replay import ReplayResult
from repro.obs import events as obs_events
from repro.analysis.timeline import DailySample, Timeline
from repro.cache.keys import CacheKey
from repro.ffs.image import filesystem_from_document, filesystem_to_document

from repro import schemas

SCHEMA = schemas.CACHE
#: Bump to invalidate every existing entry (part of every key's hash).
FORMAT_VERSION = 1

__all__ = ["ArtifactCache", "CacheEntry", "SCHEMA", "FORMAT_VERSION"]


@dataclass(frozen=True)
class CacheEntry:
    """One stored artifact, as listed by ``repro-ffs cache ls``."""

    path: Path
    created_at: float
    size_bytes: int
    key: Dict[str, object]


class ArtifactCache:
    """A persistent artifact store rooted at one directory."""

    def __init__(self, root: "Path | str"):
        self.root = Path(root)

    # ------------------------------------------------------------------
    # Generic entry plumbing
    # ------------------------------------------------------------------

    def path_for(self, key: CacheKey) -> Path:
        """Where an entry with ``key`` lives (whether or not it exists)."""
        return self.root / f"{key.hint}-{key.digest[:16]}.json"

    def _read_entry(self, key: CacheKey) -> Optional[Dict[str, object]]:
        """The entry document for ``key``, or None on any mismatch.

        Missing file, unreadable JSON, wrong schema, and — crucially —
        a stored key payload that differs from the requested one all
        count as misses: invalidation is automatic because nothing else
        ever trusts an entry.
        """
        path = self.path_for(key)
        try:
            with open(path) as fp:
                document = json.load(fp)
        except (OSError, ValueError):
            return None
        if document.get("schema") != SCHEMA:
            return None
        if document.get("key") != key.payload:
            return None
        return document

    def _write_entry(self, key: CacheKey, payload: Dict[str, object]) -> Optional[Path]:
        """Atomically persist ``payload`` under ``key`` (best-effort)."""
        path = self.path_for(key)
        document = {
            "schema": SCHEMA,
            "key": key.payload,
            # Manifest metadata only: created_at is excluded from the
            # content-address key, so the wall-clock stamp cannot perturb
            # cache hits or any simulated state.  Whole seconds keep the
            # entry's size independent of the clock's fraction.
            "created_at": int(time.time()),  # replint: disable=R001  (manifest metadata, outside the content-address key)
            "payload": payload,
        }
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            with open(tmp, "w") as fp:
                # ``json.dumps`` encodes in C; ``json.dump`` streams
                # through the pure-Python encoder.  The text is the same.
                fp.write(json.dumps(document))
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass
            return None
        return path

    # ------------------------------------------------------------------
    # ReplayResult artifacts
    # ------------------------------------------------------------------

    def load_replay(
        self, key: CacheKey, verify: bool = False
    ) -> Optional[ReplayResult]:
        """The cached aged file system for ``key``, or None on a miss.

        ``verify`` runs the fsck-lite checker over the restored file
        system (also via ``REPRO_CACHE_VERIFY=1``); off by default
        because the image loader already re-marks every allocation and
        raises on inconsistency.
        """
        document = self._read_entry(key)
        metric = obs.metrics_or_none()
        events = obs.events_or_none()
        if document is None:
            if metric is not None:
                metric.counter("cache.misses").inc()
            if events is not None:
                events.emit(
                    obs_events.CACHE_MISS, hint=key.hint,
                    digest=key.digest[:16], reason="absent",
                )
            return None
        verify = verify or os.environ.get("REPRO_CACHE_VERIFY", "") == "1"
        try:
            result = _replay_from_document(document["payload"], verify=verify)
        except Exception:
            # A corrupt payload is a miss, not a failure mode.
            if metric is not None:
                metric.counter("cache.load_errors").inc()
            if events is not None:
                events.emit(
                    obs_events.CACHE_MISS, hint=key.hint,
                    digest=key.digest[:16], reason="corrupt",
                )
            return None
        if metric is not None:
            metric.counter("cache.hits").inc()
        if events is not None:
            events.emit(
                obs_events.CACHE_HIT, hint=key.hint, digest=key.digest[:16],
            )
        return result

    def save_replay(self, key: CacheKey, result: ReplayResult) -> Optional[Path]:
        """Persist one aged file system; returns its path (best-effort)."""
        path = self._write_entry(key, _replay_to_document(result))
        metric = obs.metrics_or_none()
        if metric is not None and path is not None:
            metric.counter("cache.writes").inc()
        return path

    # ------------------------------------------------------------------
    # Maintenance (the ``repro-ffs cache`` subcommands)
    # ------------------------------------------------------------------

    def entries(self) -> List[CacheEntry]:
        """All intact entries, ordered by file name."""
        found: List[CacheEntry] = []
        if not self.root.is_dir():
            return found
        for path in sorted(self.root.glob("*.json")):
            try:
                with open(path) as fp:
                    document = json.load(fp)
            except (OSError, ValueError):
                continue
            if document.get("schema") != SCHEMA:
                continue
            found.append(
                CacheEntry(
                    path=path,
                    created_at=float(document.get("created_at", 0.0)),
                    size_bytes=path.stat().st_size,
                    key=dict(document.get("key", {})),
                )
            )
        return found

    def clear(self) -> int:
        """Delete every entry (and stale temp file); returns the count."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for path in list(self.root.glob("*.json")) + list(
            self.root.glob(".*.tmp")
        ):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


# ----------------------------------------------------------------------
# ReplayResult <-> document
# ----------------------------------------------------------------------


def _replay_to_document(result: ReplayResult) -> Dict[str, object]:
    return {
        "timeline": {
            "label": result.timeline.label,
            "samples": [
                [s.day, s.layout_score, s.utilization, s.live_files,
                 s.ops_applied]
                for s in result.timeline.samples
            ],
        },
        "ops_applied": result.ops_applied,
        "creates": result.creates,
        "deletes": result.deletes,
        "skipped_no_space": result.skipped_no_space,
        "bytes_written": result.bytes_written,
        "live_files": sorted(result.live_files.items()),
        "fs": filesystem_to_document(result.fs),
    }


def _replay_from_document(
    payload: Dict[str, object], verify: bool
) -> ReplayResult:
    timeline_doc = payload["timeline"]  # type: ignore[index]
    timeline = Timeline(label=timeline_doc["label"])  # type: ignore[index]
    for day, score, util, live, ops in timeline_doc["samples"]:  # type: ignore[index]
        timeline.add(
            DailySample(
                day=day, layout_score=score, utilization=util,
                live_files=live, ops_applied=ops,
            )
        )
    return ReplayResult(
        fs=filesystem_from_document(payload["fs"], verify=verify),  # type: ignore[arg-type]
        timeline=timeline,
        ops_applied=payload["ops_applied"],  # type: ignore[arg-type]
        creates=payload["creates"],  # type: ignore[arg-type]
        deletes=payload["deletes"],  # type: ignore[arg-type]
        skipped_no_space=payload["skipped_no_space"],  # type: ignore[arg-type]
        bytes_written=payload["bytes_written"],  # type: ignore[arg-type]
        live_files={int(fid): int(ino) for fid, ino in payload["live_files"]},  # type: ignore[union-attr]
    )
