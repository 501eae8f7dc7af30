"""Run manifests: one JSON artifact describing one experiment run.

A manifest answers, months later, the questions a reviewer asks about
any number in the paper reproduction: *what* ran (command, arguments,
preset), *where* (Python version, platform), *how long* (wall time),
and *what it observed* (the full metrics snapshot).  ``repro-ffs
... --metrics FILE`` writes one; ``repro-ffs stats FILE`` renders it
back as text tables.

The schema is versioned so later sessions can evolve it without
breaking stored artifacts.  v2 adds two optional sections: ``timings``
(per-experiment wall seconds — the ``--slowest`` data, so it survives
into the saved artifact instead of living only on stderr) and
``profile`` (the per-phase top-offenders tables from a ``--profile``
run).  v1 manifests load fine; the new fields default to empty.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, TextIO

from repro import schemas
from repro.errors import MalformedInputError

SCHEMA = schemas.MANIFEST

__all__ = ["RunManifest", "environment_info", "SCHEMA"]


def environment_info() -> Dict[str, str]:
    """The runtime environment fields recorded in every manifest."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
    }


@dataclass
class RunManifest:
    """Config + environment + metrics for one run."""

    command: str
    #: Structured invocation parameters (preset, policy, flags...).
    config: Dict[str, object] = field(default_factory=dict)
    environment: Dict[str, str] = field(default_factory=environment_info)
    #: Seconds since the epoch at run start (wall clock).
    started_at: float = field(default_factory=time.time)
    wall_seconds: Optional[float] = None
    #: A :meth:`repro.obs.metrics.MetricsRegistry.snapshot`.
    metrics: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: Per-unit wall seconds (e.g. experiment name -> seconds), v2.
    timings: Dict[str, float] = field(default_factory=dict)
    #: Per-phase top-offenders tables from ``--profile``, v2.
    profile: Dict[str, List[Dict[str, object]]] = field(default_factory=dict)
    schema: str = SCHEMA

    def finish(self, wall_seconds: float, metrics: Dict[str, Dict[str, object]]) -> None:
        """Seal the manifest with the run's duration and final metrics."""
        self.wall_seconds = wall_seconds
        self.metrics = metrics

    # ------------------------------------------------------------------
    # (De)serialisation
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": self.schema,
            "command": self.command,
            "config": self.config,
            "environment": self.environment,
            "started_at": self.started_at,
            "wall_seconds": self.wall_seconds,
            "metrics": self.metrics,
            "timings": self.timings,
            "profile": self.profile,
        }

    def dump(self, fp: TextIO) -> None:
        from repro.obs.export import write_json

        write_json(fp, self.to_dict())

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunManifest":
        """Rebuild a manifest; anything else raises
        :class:`MalformedInputError`."""
        if not isinstance(data, dict):
            raise MalformedInputError("not a run manifest (not a JSON object)")
        schema = data.get("schema", SCHEMA)
        if not str(schema).startswith("repro.obs.manifest/"):
            raise MalformedInputError(f"not a run manifest (schema {schema!r})")
        return cls(
            command=str(data.get("command", "")),
            config=dict(data.get("config", {})),  # type: ignore[arg-type]
            environment=dict(data.get("environment", {})),  # type: ignore[arg-type]
            started_at=float(data.get("started_at", 0.0)),  # type: ignore[arg-type]
            wall_seconds=data.get("wall_seconds"),  # type: ignore[arg-type]
            metrics=dict(data.get("metrics", {})),  # type: ignore[arg-type]
            timings=dict(data.get("timings", {})),  # type: ignore[arg-type]
            profile=dict(data.get("profile", {})),  # type: ignore[arg-type]
            schema=str(schema),
        )

    @classmethod
    def load(cls, fp: TextIO) -> "RunManifest":
        try:
            data = json.load(fp)
        except ValueError as exc:  # not JSON, or not text at all
            raise MalformedInputError(
                f"not a run manifest (invalid JSON: {exc})"
            ) from None
        return cls.from_dict(data)
