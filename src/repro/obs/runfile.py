"""Run files: one JSONL file per captured run, and the one loader.

``repro-ffs ... --run FILE`` writes a run file once, when the run ends;
``--record`` keeps the same file in the run registry.  Every row is one
compact JSON object whose ``"row"`` tag names its kind: first the
``header`` (the run manifest less its metrics; a recorded run's header
also carries its registry ``id`` and ``summary``), then the ``span``,
``event`` and (with ``--disk-rows``) ``disk`` rows of the run's logs,
each log ending with its ``log_truncated`` marker when its bound
dropped rows, and last the ``metrics`` snapshot.  Stripping the tag
gives back a log row exactly as its :class:`~repro.obs.events.RowLog`
holds it.

:func:`read_run` decides once what a valid run file is; ``report``,
``diff``, ``stats`` and the run registry trust what it returns.  It
refuses, naming the line, a line that is not a JSON object, a first row
that is not a header (an old ``--metrics`` manifest or registry
document), a second header (two runs pasted together), an unknown tag,
a row after the metrics row or no metrics row at all, and a row whose
fields do not fit its tag (``docs/observability.md`` lists the checks).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, TextIO, Tuple,
)

from repro.errors import MalformedInputError, is_int, is_number
from repro.obs.events import (
    DAY_SAMPLE, EVENT_TYPES, LOG_TRUNCATED, TAG, RowLog,
)
from repro.obs.export import write_jsonl
from repro.obs.manifest import RunManifest

__all__ = ["Run", "read_run", "load_run", "write_run",
           "TAG", "HEADER", "SPAN", "EVENT", "DISK", "METRICS"]

Row = Dict[str, Any]

#: The row kinds a run file's ``TAG`` names.
HEADER = "header"
SPAN = "span"
EVENT = "event"
DISK = "disk"
METRICS = "metrics"

#: Summary fields every histogram snapshot carries besides
#: ``buckets`` (see :meth:`repro.obs.metrics.Histogram.to_dict`).
_HISTOGRAM_FIELDS = ("count", "sum", "min", "max", "mean")
#: Disk-row fields the readers (:mod:`repro.obs.heatmap`) compute with;
#: each may be absent, but when present is a number.
_DISK_NUMBERS = ("cyl", "seek_cyls", "seek_ms", "service_ms")


@dataclass
class Run:
    """One run file's contents: the manifest and its rows by kind.

    ``events`` and ``disk`` are None when the file holds no rows of that
    kind, so a comparison skips what neither run captured.  A
    header-only read (``history``) leaves ``spans`` empty and the
    manifest's metrics empty.
    """

    manifest: RunManifest
    spans: List[Row] = field(default_factory=list)
    events: Optional[List[Row]] = None
    disk: Optional[List[Row]] = None
    #: The registry id and headline summary of a ``--record`` run.
    id: Optional[str] = None
    summary: Optional[Dict[str, Any]] = None

    @property
    def started_at(self) -> float:
        return self.manifest.started_at

    @property
    def headline(self) -> Dict[str, Any]:
        return self.summary or {}

    def header(self) -> Row:
        """The header row's fields: the manifest less its metrics, plus
        the registry id and summary when the run has them."""
        header: Row = self.manifest.to_dict()
        del header["metrics"]
        if self.id is not None:
            header["id"] = self.id
        if self.summary is not None:
            header["summary"] = self.summary
        return header


def write_run(
    fp: TextIO, run: Run, logs: Iterable[Optional[RowLog]] = ()
) -> None:
    """Write ``run``'s header, each live log's rows (tagged with the
    log's kind) and the metrics row, as one run file."""
    write_jsonl(fp, [{**run.header(), TAG: HEADER}])
    for log in logs:
        if log is not None:
            log.write_jsonl(fp)
    write_jsonl(fp, [{TAG: METRICS, METRICS: run.manifest.metrics}])


# ----------------------------------------------------------------------
# Shape checks, one per row kind: each returns what is wrong, or None.
# ----------------------------------------------------------------------


def _metric_problem(data: object) -> Optional[str]:
    """A counter or gauge needs a numeric ``value``; a histogram its
    summary numbers (``min``/``max`` null only when empty) and
    ``[bound, count]`` buckets."""
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


def _metrics_problem(row: Row) -> Optional[str]:
    metrics = row.get(METRICS)
    if not isinstance(metrics, dict):
        return "metrics row: 'metrics' is not an object"
    for name, metric in metrics.items():
        problem = _metric_problem(metric)
        if problem is not None:
            return f"metric {name!r} {problem}"
    return None


def _bad(
    what: str, row: Row, checks: Iterable[Tuple[str, bool]]
) -> Optional[str]:
    """``"<what>: bad <key> <value>"`` for the first failing
    ``(key, ok)`` check, or None."""
    for key, ok in checks:
        if not ok:
            return f"{what}: bad {key} {repr(row.get(key))[:60]}"
    return None


def _numbers(value: object) -> bool:
    return isinstance(value, list) and all(is_number(v) for v in value)


def _maybe_number(value: object) -> bool:
    return value is None or is_number(value)


def _summary_ok(summary: object) -> bool:
    """A recorded run's headline: numbers, and ``layout_scores``
    mapping labels to numbers."""
    if not isinstance(summary, dict):
        return False
    scores = summary.get("layout_scores", {})
    return isinstance(scores, dict) and all(
        is_number(v) for v in scores.values()
    ) and all(is_number(v) for k, v in summary.items() if k != "layout_scores")


def _header_problem(row: Row) -> Optional[str]:
    timings, profile = row.get("timings", {}), row.get("profile", {})
    return _bad(HEADER, row, (
        ("schema", str(row.get("schema")).startswith("repro.obs.manifest/")),
        ("config", isinstance(row.get("config", {}), dict)),
        ("environment", isinstance(row.get("environment", {}), dict)),
        ("timings", isinstance(timings, dict)
         and all(is_number(v) for v in timings.values())),
        ("profile", isinstance(profile, dict) and all(
            isinstance(rows, list) and all(isinstance(r, dict) for r in rows)
            for rows in profile.values()
        )),
        ("started_at", is_number(row.get("started_at", 0.0))),
        ("wall_seconds", _maybe_number(row.get("wall_seconds"))),
        ("id", isinstance(row.get("id", ""), str)),
        ("summary", "summary" not in row or _summary_ok(row["summary"])),
    ))


def _span_problem(row: Row) -> Optional[str]:
    parent = row.get("parent_id")
    return _bad(f"span row seq {row['seq']}", row, (
        ("name", isinstance(row.get("name"), str)),
        ("parent_id", parent is None or is_int(parent)),
        ("wall_elapsed_s", _maybe_number(row.get("wall_elapsed_s"))),
        ("sim_elapsed", _maybe_number(row.get("sim_elapsed"))),
        ("attrs", isinstance(row.get("attrs") or {}, dict)),
    ))


def _event_problem(row: Row) -> Optional[str]:
    kind = row.get("type")
    problem = _bad(f"event row seq {row['seq']}", row, (
        ("type", isinstance(kind, str) and kind in EVENT_TYPES),
    ))
    if problem is not None or kind != DAY_SAMPLE:
        return problem
    occupancy, frag = row.get("cg_occupancy"), row.get("cg_frag")
    # Figure 1/2's day samples: the per-CG vectors are optional (older
    # captures lack them) but, when present, are lists of numbers.
    return _bad(f"day_sample row seq {row['seq']}", row, (
        ("label", isinstance(row.get("label"), str)),
        ("day", is_int(row.get("day"))),
        ("layout_score", is_number(row.get("layout_score"))),
        ("utilization", is_number(row.get("utilization"))),
        ("cg_occupancy", occupancy is None or _numbers(occupancy)),
        ("cg_frag", frag is None or _numbers(frag)),
    ))


def _disk_problem(row: Row) -> Optional[str]:
    return _bad(f"disk row seq {row['seq']}", row, (
        ("kind", row.get("kind") in ("read", "write")),
        *((key, _maybe_number(row.get(key))) for key in _DISK_NUMBERS),
    ))


_LOG_CHECKS: Dict[str, Callable[[Row], Optional[str]]] = {
    SPAN: _span_problem,
    EVENT: _event_problem,
    DISK: _disk_problem,
}


def _log_problem(kind: str, row: Row) -> Optional[str]:
    if not is_int(row.get("seq")):
        return f"{kind} row: bad seq {row.get('seq')!r}"
    if row.get("type") == LOG_TRUNCATED:
        if is_int(row.get("dropped")):
            return None
        return f"{kind} row: {LOG_TRUNCATED} without an integer dropped count"
    return _LOG_CHECKS[kind](row)


# ----------------------------------------------------------------------
# The loader
# ----------------------------------------------------------------------


def _lines(fp: TextIO) -> Iterator[Tuple[int, str]]:
    """``(line number, text)`` per non-blank line."""
    try:
        for number, line in enumerate(fp, start=1):
            if line.strip():
                yield number, line
    except UnicodeDecodeError as exc:
        raise MalformedInputError(f"not a run file (not text: {exc})") from None


def _parse(line: str) -> Tuple[Row, Optional[str]]:
    """One line's JSON object, or what keeps it from being one."""
    try:
        row = json.loads(line)
    except ValueError as exc:
        return {}, f"invalid JSON: {exc}"
    if not isinstance(row, dict):
        return {}, f"expected a JSON object, got {type(row).__name__}"
    return row, None


def _row_problem(
    tag: object, row: Row, after_header: bool, after_metrics: bool
) -> Optional[str]:
    """What is wrong with one row where it stands in the file."""
    if tag == HEADER:
        if after_header:
            return "a second header row (two runs in one file?)"
        return _header_problem(row)
    if after_metrics:
        return "a row after the metrics row, which must be last"
    if tag == METRICS:
        return _metrics_problem(row)
    if isinstance(tag, str) and tag in _LOG_CHECKS:
        return _log_problem(tag, row)
    return f"unknown row tag {tag!r}"


def read_run(fp: TextIO, header_only: bool = False) -> Run:
    """Load one run file, checking every row (see the module docs);
    ``header_only`` stops after the header row."""
    header: Optional[Row] = None
    logs: Dict[str, List[Row]] = {SPAN: [], EVENT: [], DISK: []}
    metrics: Optional[Row] = None
    for number, line in _lines(fp):
        row, problem = _parse(line)
        tag = row.pop(TAG, None)
        if header is None and (problem is not None or tag != HEADER):
            problem = "not a run manifest header, so not a run file" + (
                f" ({problem})" if problem else ""
            )
        elif problem is None:
            problem = _row_problem(tag, row, header is not None,
                                   metrics is not None)
        if problem is not None:
            raise MalformedInputError(f"line {number}: {problem}")
        if tag == HEADER:
            header = row
            if header_only:
                break
        elif tag == METRICS:
            metrics = row
        else:
            logs[str(tag)].append(row)
    if header is None:
        raise MalformedInputError("an empty file, not a run file")
    if metrics is None and not header_only:
        raise MalformedInputError("no metrics row (a truncated run file?)")
    manifest = RunManifest(
        command=str(header.get("command", "")),
        config=dict(header.get("config", {})),
        environment=dict(header.get("environment", {})),
        started_at=float(header.get("started_at", 0.0)),
        wall_seconds=header.get("wall_seconds"),
        metrics=dict(metrics[METRICS]) if metrics is not None else {},
        timings=dict(header.get("timings", {})),
        profile=dict(header.get("profile", {})),
        schema=str(header["schema"]),
    )
    return Run(
        manifest=manifest,
        spans=logs[SPAN],
        events=logs[EVENT] or None,
        disk=logs[DISK] or None,
        id=header.get("id"),
        summary=header.get("summary"),
    )


def load_run(path: "str | Path") -> Run:
    """:func:`read_run` over the file at ``path``; a refusal names the
    file."""
    path = Path(path)
    with open(path) as fp:
        try:
            return read_run(fp)
        except MalformedInputError as exc:
            raise MalformedInputError(f"{path.name}: {exc}") from None
