"""Persistent run registry: ``--record`` and ``repro-ffs history``.

A run file describes one run; the **run store** makes runs comparable
*across invocations*.  Every ``--record`` run keeps its run file
(:mod:`repro.obs.runfile`) under ``.repro/runs/<id>.jsonl``, its header
stamped with the run id and a distilled summary — final layout score
per policy, aggregate disk throughput, seek p50/p99 — so a longitudinal
question ("has realloc's final score moved since the allocator
change?") is one ``repro-ffs history`` away instead of a replay, and
``history`` reads one line per run.  The report's trend-line panel
reads the same headers (``repro-ffs report --runs-dir``), and ``diff``
loads a whole recorded run by id: one write-once file per run,
lexicographically ordered by run id.

Run ids derive from the manifest's own start timestamp
(``<epoch-ms>-<command>``), so recording is deterministic given the
manifest and needs no extra clock sampling; a collision (two recorded
runs of the same command in the same millisecond) gets a ``.2``,
``.3``... suffix rather than overwriting history.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import MalformedInputError, RunStoreError
from repro.obs.events import RowLog
from repro.obs.export import bucket_quantiles
from repro.obs.manifest import RunManifest
from repro.obs.runfile import Run, read_run, write_run

#: Default registry location, next to the artifact cache.
DEFAULT_DIR = ".repro/runs"

__all__ = ["RunStore", "summarize_manifest", "summary_series",
           "render_history", "filter_runs", "DEFAULT_DIR"]


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
    """One directory of write-once run files, ordered by run id."""

    def __init__(self, root: "str | Path | None" = None) -> None:
        self.root = Path(root) if root is not None else Path(DEFAULT_DIR)

    def run_id(self, manifest: RunManifest) -> str:
        """Deterministic id for a manifest: ``<epoch-ms>-<command>``."""
        return f"{int(manifest.started_at * 1000):013d}-{manifest.command}"

    def path(self, run_id: str) -> Path:
        return self.root / f"{run_id}.jsonl"

    def record(
        self, manifest: RunManifest, logs: Iterable[Optional[RowLog]] = ()
    ) -> Run:
        """Keep one run's file, its header stamped with the run id and
        summary; returns the run as recorded."""
        self.root.mkdir(parents=True, exist_ok=True)
        base = self.run_id(manifest)
        run_id = base
        suffix = 2
        while self.path(run_id).exists():
            run_id = f"{base}.{suffix}"
            suffix += 1
        run = Run(manifest, id=run_id, summary=summarize_manifest(manifest))
        with open(self.path(run_id), "w") as fp:
            write_run(fp, run, logs)
        return run

    def runs(self, warn: bool = False) -> List[Run]:
        """Every run's header, oldest first (id order).

        Unreadable or foreign files are skipped, not fatal: the registry
        is append-only across many sessions and one damaged file must
        not hide the rest of the history.  With ``warn=True`` (what
        ``repro-ffs history`` and the trend panels pass) each skipped
        file costs one stderr line, so silent data loss is still
        visible.
        """
        if not self.root.is_dir():
            return []
        runs: List[Run] = []
        for path in sorted(p for p in self.root.iterdir() if p.is_file()):
            try:
                runs.append(_load(path, header_only=True))
            except RunStoreError as exc:
                if warn:
                    print(f"warning: skipping {exc}", file=sys.stderr)
        return runs

    def load_run(self, run_id: str) -> Run:
        """One whole run by exact id, or by unique id prefix.

        A prefix that matches several runs, a missing id, or a corrupt
        file all raise :class:`RunStoreError` — direct addressing
        (``repro-ffs diff <run-id>``) must fail loudly where bulk
        listing degrades.
        """
        exact = self.path(run_id)
        if exact.is_file():
            return _load(exact)
        if self.root.is_dir():
            matches = sorted(self.root.glob(f"{run_id}*.jsonl"))
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


def _load(path: Path, header_only: bool = False) -> Run:
    """One registry run file, or a typed :class:`RunStoreError`, so
    every caller makes one decision: skip with a warning (bulk
    listings) or surface (direct addressing)."""
    try:
        with open(path) as fp:
            run = read_run(fp, header_only)
    except (OSError, MalformedInputError) as exc:
        kind = "unreadable" if isinstance(exc, OSError) else "corrupt"
        raise RunStoreError(
            f"{kind} run file {path.name}: {exc}", path=str(path),
        ) from None
    if run.id is None:
        raise RunStoreError(
            f"corrupt run file {path.name}: its header has no run id",
            path=str(path),
        )
    return run


def summary_series(
    runs: List[Run],
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
    runs: List[Run],
    command: Optional[str] = None,
    policy: Optional[str] = None,
    limit: Optional[int] = None,
) -> List[Run]:
    """``repro-ffs history``'s view: filtered, newest first.

    ``command`` matches the recorded subcommand exactly; ``policy``
    matches the run's recorded ``--policy`` config value exactly
    (``ffs``/``realloc``/``both``), not the derived metric labels —
    substring-matching labels would make ``ffs`` swallow
    ``FFS + Realloc`` runs.  ``limit`` keeps the newest N after
    filtering.  The input (the store's natural oldest-first order) is
    not mutated.
    """
    kept: List[Run] = []
    for run in reversed(runs):
        if command is not None and run.manifest.command != command:
            continue
        if policy is not None and run.manifest.config.get("policy") != policy:
            continue
        kept.append(run)
        if limit is not None and len(kept) >= limit:
            break
    return kept


def render_history(runs: List[Run]) -> str:
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
