"""Persistent run registry: ``--record`` and ``repro-ffs history``.

A manifest describes one run; the **run store** makes runs comparable
*across invocations*.  Every ``--record`` run archives its manifest
under ``.repro/runs/`` together with a distilled summary — final layout
score per policy, aggregate disk throughput, seek p50/p99 — so a
longitudinal question ("has realloc's final score moved since the
allocator change?") is one ``repro-ffs history`` away instead of a
replay.  The report's trend-line panel reads the same documents
(``repro-ffs report --runs-dir``), and a future sharded runner can
treat the directory as its results substrate: one JSON document per
run, write-once, lexicographically ordered by run id.

Run ids derive from the manifest's own start timestamp
(``<epoch-ms>-<command>``), so recording is deterministic given the
manifest and needs no extra clock sampling; a collision (two recorded
runs of the same command in the same millisecond) gets a ``.2``,
``.3``... suffix rather than overwriting history.

Documents carry schema ``repro.obs.runstore/v1``:

```json
{"schema": "repro.obs.runstore/v1", "id": "...", "command": "...",
 "preset": "...", "started_at": ..., "summary": {...},
 "manifest": {...}}
```

:class:`RunStore` and :func:`read_run_file` read these documents
through one check: the embedded manifest goes through
:meth:`RunManifest.from_dict` and the summary's shape is checked, so
``history``, ``diff``, the drift fit and the report's trend panel trust
what they get.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.errors import MalformedInputError, RunStoreError, is_number
from repro.obs.export import bucket_quantiles, write_json
from repro.obs.manifest import RunManifest

from repro import schemas

SCHEMA = schemas.RUNSTORE

#: Default registry location, next to the artifact cache.
DEFAULT_DIR = ".repro/runs"

__all__ = ["RunStore", "RunRecord", "read_run_file", "summarize_manifest",
           "summary_series", "render_history", "filter_runs", "SCHEMA",
           "DEFAULT_DIR"]


class RunRecord(NamedTuple):
    """A registry document that passed the store's check."""

    id: str
    started_at: float
    manifest: RunManifest
    #: A :func:`summarize_manifest`-shaped object, or None when the
    #: document has none (a bare ``--metrics`` manifest read by
    #: :func:`read_run_file`); :attr:`headline` treats both alike.
    summary: Optional[Dict[str, Any]]
    #: The document as read, for ``history --json``.
    document: Dict[str, Any]

    @property
    def headline(self) -> Dict[str, Any]:
        return self.summary or {}


#: Summary fields trended per run besides the per-label layout scores.
_SERIES_KEYS = (
    "throughput_mb_s", "lost_rotations", "seek_p99_ms",
    "write_amplification", "flash_erases", "ssd_throughput_mb_s",
)


def summarize_manifest(manifest: RunManifest) -> Dict[str, object]:
    """Distil the headline numbers a trend line needs from one manifest.

    Missing metrics simply yield missing keys — a ``freespace`` run has
    no disk counters, an ``experiment fig1`` run no throughput — so the
    summary of any recorded run is honest about what it observed.
    """
    metrics = manifest.metrics
    summary: Dict[str, object] = {}
    scores: Dict[str, float] = {}
    for name, data in metrics.items():
        if (
            name.startswith("replay.")
            and name.endswith(".final_score")
            and data.get("type") == "gauge"
        ):
            label = name[len("replay."):-len(".final_score")]
            scores[label] = float(data["value"])
    if scores:
        summary["layout_scores"] = {
            label: round(score, 4) for label, score in sorted(scores.items())
        }

    def counter(name: str) -> Optional[float]:
        data = metrics.get(name)
        if data is None or data.get("type") != "counter":
            return None
        return float(data["value"])

    busy_ms = counter("disk.busy_ms")
    bytes_read = counter("disk.bytes_read")
    bytes_written = counter("disk.bytes_written")
    if busy_ms and bytes_read is not None and bytes_written is not None:
        mb = (bytes_read + bytes_written) / (1024.0 * 1024.0)
        summary["throughput_mb_s"] = round(mb / (busy_ms / 1000.0), 3)
    lost = counter("disk.lost_rotations")
    if lost is not None:
        summary["lost_rotations"] = int(lost)
    seek_hist = metrics.get("disk.seek_time_ms")
    if seek_hist is not None and seek_hist.get("count"):
        quantiles = bucket_quantiles(seek_hist)
        summary["seek_p50_ms"] = quantiles["p50"]
        summary["seek_p99_ms"] = quantiles["p99"]
    dist_hist = metrics.get("disk.seek_distance_cyl")
    if dist_hist is not None and dist_hist.get("count"):
        quantiles = bucket_quantiles(dist_hist)
        summary["seek_distance_p50_cyl"] = quantiles["p50"]
        summary["seek_distance_p99_cyl"] = quantiles["p99"]
    # Flash-substrate runs (--backend ssd) carry their own headline
    # numbers: device wear and GC traffic instead of seeks.
    host_pages = counter("ssd.host_pages_written")
    programs = counter("ssd.flash_programs")
    if host_pages and programs is not None:
        summary["write_amplification"] = round(programs / host_pages, 4)
    erases = counter("ssd.flash_erases")
    if erases is not None:
        summary["flash_erases"] = int(erases)
    moved = counter("ssd.gc_moved_pages")
    if moved is not None:
        summary["gc_moved_pages"] = int(moved)
    ssd_busy = counter("ssd.busy_ms")
    ssd_read = counter("ssd.bytes_read")
    ssd_written = counter("ssd.bytes_written")
    if ssd_busy and ssd_read is not None and ssd_written is not None:
        mb = (ssd_read + ssd_written) / (1024.0 * 1024.0)
        summary["ssd_throughput_mb_s"] = round(mb / (ssd_busy / 1000.0), 3)
    if manifest.wall_seconds is not None:
        summary["wall_seconds"] = round(manifest.wall_seconds, 3)
    return summary


class RunStore:
    """One directory of write-once run documents, ordered by run id."""

    def __init__(self, root: "str | Path | None" = None) -> None:
        self.root = Path(root) if root is not None else Path(DEFAULT_DIR)

    def run_id(self, manifest: RunManifest) -> str:
        """Deterministic id for a manifest: ``<epoch-ms>-<command>``."""
        return f"{int(manifest.started_at * 1000):013d}-{manifest.command}"

    def record(self, manifest: RunManifest) -> str:
        """Archive one run; returns the id it was stored under."""
        self.root.mkdir(parents=True, exist_ok=True)
        base = self.run_id(manifest)
        run_id = base
        suffix = 2
        while (self.root / f"{run_id}.json").exists():
            run_id = f"{base}.{suffix}"
            suffix += 1
        config = manifest.config
        document: Dict[str, object] = {
            "schema": SCHEMA,
            "id": run_id,
            "command": manifest.command,
            "preset": config.get("preset"),
            "backend": config.get("backend"),
            "started_at": manifest.started_at,
            "summary": summarize_manifest(manifest),
            "manifest": manifest.to_dict(),
        }
        with open(self.root / f"{run_id}.json", "w") as fp:
            write_json(fp, document)
        return run_id

    def runs(self, warn: bool = False) -> List[RunRecord]:
        """All readable run documents, oldest first (id order).

        Unreadable or foreign JSON files are skipped, not fatal: the
        registry is append-only across many sessions and one damaged
        document must not hide the rest of the history.  With
        ``warn=True`` (what ``repro-ffs history`` and the trend panels
        pass) each skipped entry costs one stderr line, so silent data
        loss is still visible.
        """
        if not self.root.is_dir():
            return []
        documents: List[RunRecord] = []
        for path in sorted(self.root.glob("*.json")):
            try:
                documents.append(_load(path))
            except RunStoreError as exc:
                if warn:
                    print(f"warning: skipping {exc}", file=sys.stderr)
                continue
        return documents

    def load_run(self, run_id: str) -> RunRecord:
        """One run by exact id, or by unique id prefix.

        A prefix that matches several runs, a missing id, or a corrupt
        entry all raise :class:`RunStoreError` — direct addressing
        (``repro-ffs diff <run-id>``) must fail loudly where bulk
        listing degrades.
        """
        exact = self.root / f"{run_id}.json"
        if exact.is_file():
            return _load(exact)
        if self.root.is_dir():
            matches = sorted(self.root.glob(f"{run_id}*.json"))
            if len(matches) == 1:
                return _load(matches[0])
            if len(matches) > 1:
                names = ", ".join(p.stem for p in matches[:5])
                raise RunStoreError(
                    f"run id prefix {run_id!r} is ambiguous: {names}"
                )
        raise RunStoreError(
            f"no recorded run {run_id!r} under {self.root}"
        )


def _summary_problem(summary: object) -> Optional[str]:
    """What is wrong with a registry document's summary, or None."""
    if not isinstance(summary, dict):
        return "'summary' is not an object"
    scores = summary.get("layout_scores", {})
    if not isinstance(scores, dict) or not all(
        is_number(v) for v in scores.values()
    ):
        return "summary 'layout_scores' is not an object of numbers"
    for key, value in summary.items():
        if key != "layout_scores" and not is_number(value):
            return f"summary {key!r} is not a number"
    return None


def _read_json(path: Path) -> object:
    try:
        with open(path) as fp:
            return json.load(fp)
    except (OSError, ValueError) as exc:
        kind = "unreadable" if isinstance(exc, OSError) else "corrupt"
        raise RunStoreError(
            f"{kind} run document {path.name}: {exc}", path=str(path),
        ) from exc


def _record(document: Dict[str, Any], path: Path) -> RunRecord:
    """Check a registry document's shape: a string ``id``, a numeric
    ``started_at``, the embedded manifest through
    :meth:`RunManifest.from_dict` and an optional summary."""

    def refuse(problem: str) -> RunStoreError:
        return RunStoreError(
            f"malformed run document {path.name}: {problem}", path=str(path),
        )

    if not isinstance(document.get("id"), str):
        raise refuse("'id' is not a string")
    if not is_number(document.get("started_at")):
        raise refuse("'started_at' is not a number")
    try:
        manifest = RunManifest.from_dict(document.get("manifest"))
    except MalformedInputError as exc:
        raise refuse(str(exc)) from None
    if "summary" in document:
        problem = _summary_problem(document["summary"])
        if problem is not None:
            raise refuse(problem)
    return RunRecord(
        id=document["id"],
        started_at=float(document["started_at"]),
        manifest=manifest,
        summary=document.get("summary"),
        document=document,
    )


def _load(path: Path) -> RunRecord:
    """One registry document, or a typed :class:`RunStoreError`.

    Corrupt or truncated entries, foreign schemas (a stray JSON file in
    the directory) and malformed entries all raise the same error type,
    so every caller makes one decision: skip with a warning (bulk
    listings) or surface (direct addressing).
    """
    document = _read_json(path)
    if not isinstance(document, dict) or not str(
        document.get("schema", "")
    ).startswith("repro.obs.runstore/"):
        raise RunStoreError(
            f"foreign document {path.name}: not a repro.obs.runstore/* "
            f"entry",
            path=str(path),
        )
    return _record(document, path)


def read_run_file(path: Path) -> RunRecord:
    """``diff``'s file operand: a registry document, or a ``--metrics``
    manifest (its schema tag required) read as a summary-free record
    named after its file; anything else raises :class:`RunStoreError`."""
    document = _read_json(path)
    if not isinstance(document, dict):
        raise RunStoreError(f"{path.name}: not a JSON object", path=str(path))
    schema = str(document.get("schema", ""))
    if schema.startswith("repro.obs.runstore/"):
        return _record(document, path)
    if not schema.startswith("repro.obs.manifest/"):
        raise RunStoreError(
            f"{path.name}: schema {schema!r} is neither a registry "
            f"document nor a run manifest",
            path=str(path),
        )
    try:
        manifest = RunManifest.from_dict(document)
    except MalformedInputError as exc:
        raise RunStoreError(f"{path.name}: {exc}", path=str(path)) from None
    return RunRecord(
        id=path.name, started_at=manifest.started_at, manifest=manifest,
        summary=None, document=document,
    )


def summary_series(
    runs: List[RunRecord],
) -> Dict[str, List[Tuple[float, float]]]:
    """Chronological ``(run index, value)`` series from run summaries.

    Layout scores fan out per policy label (``layout_score[FFS]``);
    runs missing a metric simply contribute nothing to that series, so
    a registry mixing ``age`` and ``freespace`` runs still trends what
    each run actually observed.  Series come out in first-seen order.
    This is the one reader of registry series: ``history --drift`` fits
    it and the report's run-history panel draws it.
    """
    series: Dict[str, List[Tuple[float, float]]] = {}
    for index, run in enumerate(runs):
        summary = run.headline
        for label, value in summary.get("layout_scores", {}).items():
            series.setdefault(f"layout_score[{label}]", []).append(
                (float(index), float(value))
            )
        for key in _SERIES_KEYS:
            if key in summary:
                series.setdefault(key, []).append(
                    (float(index), float(summary[key]))
                )
    return series


def filter_runs(
    runs: List[RunRecord],
    command: Optional[str] = None,
    policy: Optional[str] = None,
    limit: Optional[int] = None,
) -> List[RunRecord]:
    """``repro-ffs history``'s view: filtered, newest first.

    ``command`` matches the recorded subcommand exactly; ``policy``
    matches the run's recorded ``--policy`` config value exactly
    (``ffs``/``realloc``/``both``), not the derived metric labels —
    substring-matching labels would make ``ffs`` swallow
    ``FFS + Realloc`` runs.  ``limit`` keeps the newest N after
    filtering.  The input (the store's natural oldest-first order) is
    not mutated.
    """
    kept: List[RunRecord] = []
    for run in reversed(runs):
        if command is not None and run.manifest.command != command:
            continue
        if policy is not None and run.manifest.config.get("policy") != policy:
            continue
        kept.append(run)
        if limit is not None and len(kept) >= limit:
            break
    return kept


def render_history(runs: List[RunRecord]) -> str:
    """``repro-ffs history``: one table row per recorded run."""
    from datetime import datetime, timezone

    from repro.analysis.report import render_table

    if not runs:
        return (
            "no recorded runs (run any subcommand with --record to "
            "start the registry)"
        )

    def cell(value: Optional[float], fmt: str) -> str:
        return "-" if value is None else format(value, fmt)

    rows: List[List[str]] = []
    for run in runs:
        summary = run.headline
        when = datetime.fromtimestamp(
            run.started_at, tz=timezone.utc
        ).strftime("%Y-%m-%d %H:%M")
        score_text = " ".join(
            f"{label}={value:.3f}"
            for label, value in summary.get("layout_scores", {}).items()
        ) or "-"
        rows.append([
            run.id,
            when,
            str(run.manifest.config.get("preset") or "-"),
            score_text,
            cell(summary.get("throughput_mb_s"), ".2f"),
            cell(summary.get("seek_p99_ms"), "g"),
            cell(summary.get("wall_seconds"), ".1f"),
        ])
    return render_table(
        ["run", "started (UTC)", "preset", "final layout scores",
         "MB/s", "seek p99 (ms)", "wall (s)"],
        rows,
        title=f"run history ({len(runs)} recorded)",
    )
