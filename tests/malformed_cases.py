"""One table of malformed inputs, each refused with one line and exit 2.

Every reader of a recorded artifact validates it once, at its loader:
the run-file loader (:mod:`repro.obs.runfile`) for runs given to
``report``, ``diff`` and ``stats`` or kept in the run registry,
:func:`~repro.ffs.image.check_format` for images, and
:meth:`Workload.load <repro.aging.workload.Workload.load>` for workload
files.  :data:`CASES` names, per malformed fixture, each ``repro-ffs``
command that reads it; :func:`write_fixtures` writes the fixtures into a
directory, and the command paths are relative to it.  The tier-1 suite
(``tests/test_malformed_inputs.py``) and CI's ``run-report`` job both
run this table.
"""

import json
from pathlib import Path
from typing import Dict, List, Tuple

from repro import schemas

#: A valid run file every case can diff against.
GOOD_RUN = "good.jsonl"

#: A metrics row's snapshot each reader must refuse.
BAD_METRICS: Dict[str, object] = {
    "metric-without-value": {"x": {"type": "counter"}},
    "metrics-not-object": "nope",
    "histogram-without-buckets": {
        "h": {"type": "histogram", "count": 1, "sum": 1.0,
              "min": 1.0, "max": 1.0, "mean": 1.0},
    },
}

#: A run file whose one day_sample event has a non-numeric score.
BAD_DAY_SAMPLE = "bad-day-sample.jsonl"
#: A run file whose one disk request has a non-numeric seek time.
BAD_DISK_TRACE = "bad-disk-trace.jsonl"
#: A run file whose one span has a non-numeric wall time.
BAD_SPAN_TRACE = "bad-span-trace.jsonl"

#: Run files whose rows are each well formed but do not make a run
#: file: a tag no loader knows, two runs pasted together (a second
#: header), a log row after the metrics row, and a disk request tagged
#: as an event.
BAD_LAYOUTS: Dict[str, List[Dict[str, object]]] = {
    "unknown-tag": [{"row": "trace", "seq": 1, "name": "cli.age"}],
    "two-runs": [{"row": "metrics", "metrics": {}},
                 {"row": "header", "schema": schemas.MANIFEST,
                  "command": "age"}],
    "metrics-not-last": [{"row": "metrics", "metrics": {}},
                         {"row": "event", "seq": 1, "type": "cache_hit"}],
    "disk-row-tagged-event": [{"row": "event", "seq": 1, "kind": "read",
                               "cyl": 3, "seek_ms": 0.5}],
}

#: The two documents the run file replaced: a ``--metrics`` manifest and
#: a ``--record`` registry document, pretty-printed JSON as they were
#: written.  (The registry document's retired schema tag is left out:
#: the schema registry no longer declares it.)
OLD_DOCUMENTS: Dict[str, object] = {
    "old-manifest": {"schema": schemas.MANIFEST, "command": "age",
                     "config": {"preset": "tiny"}, "metrics": {}},
    "old-registry": {"id": "1700000000000-age", "command": "age",
                     "preset": "tiny", "started_at": 1_700_000_000.0,
                     "summary": {},
                     "manifest": {"schema": schemas.MANIFEST,
                                  "command": "age", "metrics": {}}},
}

#: Two-line workload files whose delete time no replay can reach.
BAD_WORKLOAD_TIMES: Dict[str, str] = {
    "workload-nan-time": "nan",
    "workload-inf-time": "inf",
    "workload-time-past-horizon": "5e7",
}

#: A registry whose one run file has a metric without value.
BAD_RUNS_DIR = "runs"
BAD_RUN_ID = "1700000000000-age"
#: A registry whose one run file's header has a malformed summary.
BAD_HEADER_RUNS_DIR = "runs-bad-header"

_IMAGE = {
    "format": "repro-ffs-image", "version": 2, "policy": "ffs",
    "params": {}, "rotors": [], "inodes": [], "directories": [],
    "file_directory": {},
}
_INODE = {
    "ino": 2, "is_dir": False, "size": 0, "ctime": 0.0, "mtime": 0.0,
    "dir_cg": 0, "alloc_cg": 0, "blocks": [], "tail": None,
    "indirect_blocks": [],
}
BAD_IMAGES: Dict[str, object] = {
    "image-without-sections": {"format": "repro-ffs-image", "version": 2},
    "image-unknown-param": {**_IMAGE, "params": {"bogus": 1}},
    "image-inode-not-object": {**_IMAGE, "inodes": [7]},
    "image-string-blocks": {**_IMAGE, "inodes": [{**_INODE, "blocks": "abc"}]},
    "image-inode-out-of-range": {**_IMAGE, "inodes": [{**_INODE, "ino": 10**9}]},
}

#: JSON objects that are no run file: ``diff`` must refuse them, not
#: read them as an empty run.
NOT_RUNS: Dict[str, object] = {
    "empty-object": {},
    "image-document": _IMAGE,
}


_HEADER = {"row": "header", "schema": schemas.MANIFEST, "command": "age",
           "config": {"preset": "tiny"}}


def _run(*rows: object, metrics: object = None, **header: object) -> str:
    """A run file's text: a header, ``rows``, a metrics row."""
    lines = [{**_HEADER, **header}, *rows,
             {"row": "metrics", "metrics": {} if metrics is None else metrics}]
    return "".join(json.dumps(line) + "\n" for line in lines)


def write_fixtures(directory: Path) -> None:
    """Write every fixture :data:`CASES` names into ``directory``."""
    directory = Path(directory)

    def write(name: str, text: str) -> None:
        (directory / name).write_text(text)

    write(GOOD_RUN, _run())
    for name, metrics in BAD_METRICS.items():
        write(f"{name}.jsonl", _run(metrics=metrics))
    write(BAD_DAY_SAMPLE, _run({
        "row": "event", "seq": 1, "type": "day_sample", "label": "FFS",
        "day": 0, "layout_score": "bad", "utilization": 0.1,
    }))
    write(BAD_DISK_TRACE, _run({
        "row": "disk", "seq": 1, "kind": "read", "cyl": 3, "seek_ms": "slow",
    }))
    write(BAD_SPAN_TRACE, _run({
        "row": "span", "seq": 1, "parent_id": None, "name": "cli.age",
        "wall_elapsed_s": "slow",
    }))
    for name, rows in BAD_LAYOUTS.items():
        write(f"{name}.jsonl", _run(*rows))
    for name, document in OLD_DOCUMENTS.items():
        write(f"{name}.json", json.dumps(document, indent=2) + "\n")
    (directory / BAD_RUNS_DIR).mkdir(exist_ok=True)
    write(f"{BAD_RUNS_DIR}/{BAD_RUN_ID}.jsonl", _run(
        id=BAD_RUN_ID, started_at=1_700_000_000.0, summary={},
        metrics=BAD_METRICS["metric-without-value"],
    ))
    (directory / BAD_HEADER_RUNS_DIR).mkdir(exist_ok=True)
    write(f"{BAD_HEADER_RUNS_DIR}/{BAD_RUN_ID}.jsonl", _run(
        id=BAD_RUN_ID, started_at=1_700_000_000.0, summary="nope",
    ))
    for name, document in {**BAD_IMAGES, **NOT_RUNS}.items():
        write(f"{name}.json", json.dumps(document))
    for name, time in BAD_WORKLOAD_TIMES.items():
        write(f"{name}.txt",
              "0.0 create 0 4096 5 dir000_0\n"
              f"{time} delete 0 0 5 dir000_0\n")


def _cases() -> List[Tuple[str, List[str]]]:
    def readers(name: str, path: str) -> List[Tuple[str, List[str]]]:
        return [
            (f"stats-{name}", ["stats", path]),
            (f"report-{name}", ["report", path, "--output", "r.html"]),
            (f"diff-{name}", ["diff", path, GOOD_RUN]),
        ]

    cases: List[Tuple[str, List[str]]] = []
    for name in BAD_METRICS:
        cases += readers(name, f"{name}.jsonl")
    cases += [
        ("report-bad-day-sample",
         ["report", BAD_DAY_SAMPLE, "--output", "r.html"]),
        ("diff-bad-day-sample", ["diff", GOOD_RUN, BAD_DAY_SAMPLE]),
        ("report-bad-disk-trace",
         ["report", BAD_DISK_TRACE, "--output", "r.html"]),
        ("diff-bad-disk-trace", ["diff", GOOD_RUN, BAD_DISK_TRACE]),
        ("report-bad-span-trace",
         ["report", BAD_SPAN_TRACE, "--output", "r.html"]),
        ("diff-bad-registry-document",
         ["diff", BAD_RUN_ID, GOOD_RUN, "--runs-dir", BAD_RUNS_DIR]),
    ]
    for name in BAD_LAYOUTS:
        cases += readers(name, f"{name}.jsonl")
    for name in OLD_DOCUMENTS:
        cases += readers(name, f"{name}.json")
    cases += [
        (f"diff-{name}", ["diff", f"{name}.json", GOOD_RUN])
        for name in NOT_RUNS
    ]
    for name in BAD_IMAGES:
        path = f"{name}.json"
        cases += [
            (f"fsck-{name}", ["fsck", path]),
            (f"fsck-repair-{name}", ["fsck", path, "--repair"]),
            (f"inspect-{name}", ["inspect", path]),
        ]
    cases += [
        (f"age-{name}",
         ["age", "--preset", "tiny", "--no-cache", "--workload",
          f"{name}.txt"])
        for name in BAD_WORKLOAD_TIMES
    ]
    # Nonsensical numeric requests, refused before any aging.
    cases += [
        ("chaos-max-write-zero",
         ["chaos", "--preset", "tiny", "--no-cache", "--crashes", "1",
          "--max-write", "0"]),
        ("experiment-jobs-zero",
         ["experiment", "table1", "--preset", "tiny", "--no-cache",
          "--jobs", "0"]),
        ("chaos-jobs-negative",
         ["chaos", "--preset", "tiny", "--no-cache", "--jobs", "-1"]),
        ("inspect-top-negative",
         ["inspect", "--preset", "tiny", "--no-cache", "--top", "-1"]),
        ("diff-rel-threshold-nan",
         ["diff", GOOD_RUN, GOOD_RUN, "--rel-threshold", "nan"]),
        ("diff-abs-floor-inf",
         ["diff", GOOD_RUN, GOOD_RUN, "--abs-floor", "inf"]),
        ("lint-no-such-path", ["lint", "no-such-dir"]),
    ]
    return cases


#: ``(case id, repro-ffs argv)``: each must exit 2 with one stderr line.
CASES = _cases()
