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

:meth:`RunManifest.from_dict` is the one place that decides what a
valid manifest looks like; every reader (``stats``, ``report``,
``diff``, the run registry) goes through it and then trusts the result.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, TextIO

from repro import schemas
from repro.errors import MalformedInputError, is_number

SCHEMA = schemas.MANIFEST

__all__ = ["RunManifest", "environment_info", "SCHEMA"]

#: The summary fields every histogram snapshot carries besides
#: ``buckets`` (see :meth:`repro.obs.metrics.Histogram.to_dict`).
_HISTOGRAM_FIELDS = ("count", "sum", "min", "max", "mean")


def _metric_problem(data: object) -> Optional[str]:
    """What is wrong with one metric snapshot, or None when it is a
    counter or gauge with a numeric ``value`` or a complete histogram."""
    if not isinstance(data, dict):
        return "is not an object"
    kind = data.get("type")
    if kind in ("counter", "gauge"):
        return None if is_number(data.get("value")) else "has no numeric value"
    if kind != "histogram":
        return f"has unknown type {kind!r}"
    for key in _HISTOGRAM_FIELDS:
        value = data.get(key)
        empty = key in ("min", "max") and data.get("count") == 0
        if not (is_number(value) or (value is None and empty)):
            return f"has no numeric {key}"
    buckets = data.get("buckets")
    if not isinstance(buckets, list) or not all(
        isinstance(b, list) and len(b) == 2 and is_number(b[1])
        and (is_number(b[0]) or b[0] == "+inf")
        for b in buckets
    ):
        return "has no [bound, count] buckets"
    return None


def _shape_problem(data: Dict[str, Any]) -> Optional[str]:
    """What is wrong with a manifest's sections, or None."""
    for key in ("config", "environment", "metrics", "timings", "profile"):
        if not isinstance(data.get(key, {}), dict):
            return f"{key!r} is not an object"
    for name, metric in data.get("metrics", {}).items():
        problem = _metric_problem(metric)
        if problem is not None:
            return f"metric {name!r} {problem}"
    for name, wall in data.get("timings", {}).items():
        if not is_number(wall):
            return f"timing {name!r} is not a number"
    for phase, rows in data.get("profile", {}).items():
        if not isinstance(rows, list) or not all(
            isinstance(row, dict) for row in rows
        ):
            return f"profile phase {phase!r} is not a list of objects"
    if not is_number(data.get("started_at", 0.0)):
        return "'started_at' is not a number"
    wall = data.get("wall_seconds")
    if wall is not None and not is_number(wall):
        return "'wall_seconds' is not a number"
    return None


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
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Per-unit wall seconds (e.g. experiment name -> seconds), v2.
    timings: Dict[str, float] = field(default_factory=dict)
    #: Per-phase top-offenders tables from ``--profile``, v2.
    profile: Dict[str, List[Dict[str, object]]] = field(default_factory=dict)
    schema: str = SCHEMA

    def finish(self, wall_seconds: float, metrics: Dict[str, Dict[str, Any]]) -> None:
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
    def from_dict(cls, data: object) -> "RunManifest":
        """Rebuild a manifest, checking every section's shape; anything
        else raises :class:`MalformedInputError`.

        ``config``, ``environment``, ``timings`` and ``profile`` must be
        objects (v1 manifests lack the last two); every metric must be a
        counter or gauge with a numeric ``value``, or a histogram with
        numeric ``count``/``sum``/``mean``, ``min``/``max`` (null only
        when empty) and ``[bound, count]`` buckets.
        """
        if not isinstance(data, dict):
            raise MalformedInputError("not a run manifest (not a JSON object)")
        schema = data.get("schema", SCHEMA)
        if not str(schema).startswith("repro.obs.manifest/"):
            raise MalformedInputError(f"not a run manifest (schema {schema!r})")
        problem = _shape_problem(data)
        if problem is not None:
            raise MalformedInputError(f"malformed run manifest: {problem}")
        return cls(
            command=str(data.get("command", "")),
            config=dict(data.get("config", {})),
            environment=dict(data.get("environment", {})),
            started_at=float(data.get("started_at", 0.0)),
            wall_seconds=data.get("wall_seconds"),
            metrics=dict(data.get("metrics", {})),
            timings=dict(data.get("timings", {})),
            profile=dict(data.get("profile", {})),
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
