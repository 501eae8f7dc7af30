"""Run manifests: what ran, where, how long, and what it observed.

A manifest answers, months later, the questions a reviewer asks about
any number in the paper reproduction: *what* ran (command, arguments,
preset), *where* (Python version, platform), *how long* (wall time),
and *what it observed* (the full metrics snapshot).  A run file
(:mod:`repro.obs.runfile`, ``repro-ffs ... --run FILE``) carries one: its
header row is the manifest less its metrics, and its last row is the
metrics snapshot; ``repro-ffs stats FILE`` renders it back as text
tables.

The schema is versioned so later sessions can evolve it without
breaking stored artifacts.  v2 added two sections: ``timings``
(per-experiment wall seconds — the ``--slowest`` data, so it survives
into the saved artifact instead of living only on stderr) and
``profile`` (the per-phase top-offenders tables from a ``--profile``
run).  The run-file loader is the one place that decides what a valid
manifest looks like.
"""

from __future__ import annotations

import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro import schemas

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
