"""One table of malformed inputs, each refused with one line and exit 2.

Every reader of a recorded artifact validates its document once, at the
loader: :meth:`RunManifest.from_dict` for manifests, the run store for
registry documents, :func:`~repro.obs.heatmap.day_samples` for
``day_sample`` rows, :func:`~repro.obs.disktrace.read_disk_trace` and
:func:`~repro.obs.trace.read_trace` for disk and span traces,
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

#: A valid manifest every case can diff against.
GOOD_MANIFEST = "good.json"

#: A manifest metrics section each reader must refuse.
BAD_METRICS: Dict[str, object] = {
    "metric-without-value": {"x": {"type": "counter"}},
    "metrics-not-object": "nope",
    "histogram-without-buckets": {
        "h": {"type": "histogram", "count": 1, "sum": 1.0,
              "min": 1.0, "max": 1.0, "mean": 1.0},
    },
}

#: An event log whose one day_sample row has a non-numeric score.
BAD_DAY_SAMPLE = "bad-day-sample.jsonl"
#: A disk trace whose one request has a non-numeric seek time.
BAD_DISK_TRACE = "bad-disk-trace.jsonl"
#: A span trace whose one span has a non-numeric wall time.
BAD_SPAN_TRACE = "bad-span-trace.jsonl"

#: Two-line workload files whose delete time no replay can reach.
BAD_WORKLOAD_TIMES: Dict[str, str] = {
    "workload-nan-time": "nan",
    "workload-inf-time": "inf",
    "workload-time-past-horizon": "5e7",
}

#: A registry whose one document embeds a manifest metric without value.
BAD_RUNS_DIR = "runs"
BAD_RUN_ID = "1700000000000-age"

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

#: JSON objects that are neither a registry document nor a manifest:
#: ``diff`` must refuse them, not read them as an empty run.
NOT_RUNS: Dict[str, object] = {
    "empty-object": {},
    "image-document": _IMAGE,
}


def _manifest(metrics: object) -> Dict[str, object]:
    return {"schema": schemas.MANIFEST, "command": "age",
            "config": {"preset": "tiny"}, "metrics": metrics}


def write_fixtures(directory: Path) -> None:
    """Write every fixture :data:`CASES` names into ``directory``."""
    directory = Path(directory)

    def dump(name: str, document: object) -> None:
        (directory / name).write_text(json.dumps(document))

    dump(GOOD_MANIFEST, _manifest({}))
    for name, metrics in BAD_METRICS.items():
        dump(f"{name}.json", _manifest(metrics))
    (directory / BAD_DAY_SAMPLE).write_text(json.dumps({
        "seq": 1, "type": "day_sample", "label": "FFS", "day": 0,
        "layout_score": "bad", "utilization": 0.1,
    }) + "\n")
    (directory / BAD_DISK_TRACE).write_text(json.dumps({
        "seq": 1, "kind": "read", "cyl": 3, "seek_ms": "slow",
    }) + "\n")
    (directory / BAD_SPAN_TRACE).write_text(json.dumps({
        "seq": 1, "parent_id": None, "name": "cli.age",
        "wall_elapsed_s": "slow",
    }) + "\n")
    (directory / BAD_RUNS_DIR).mkdir(exist_ok=True)
    dump(f"{BAD_RUNS_DIR}/{BAD_RUN_ID}.json", {
        "schema": schemas.RUNSTORE, "id": BAD_RUN_ID, "command": "age",
        "started_at": 1_700_000_000.0, "summary": {},
        "manifest": _manifest(BAD_METRICS["metric-without-value"]),
    })
    for name, document in {**BAD_IMAGES, **NOT_RUNS}.items():
        dump(f"{name}.json", document)
    for name, time in BAD_WORKLOAD_TIMES.items():
        (directory / f"{name}.txt").write_text(
            "0.0 create 0 4096 5 dir000_0\n"
            f"{time} delete 0 0 5 dir000_0\n"
        )


def _cases() -> List[Tuple[str, List[str]]]:
    cases: List[Tuple[str, List[str]]] = []
    for name in BAD_METRICS:
        path = f"{name}.json"
        cases += [
            (f"stats-{name}", ["stats", path]),
            (f"report-{name}", ["report", path, "--output", "r.html"]),
            (f"diff-{name}", ["diff", path, GOOD_MANIFEST]),
        ]
    cases += [
        ("report-bad-day-sample",
         ["report", GOOD_MANIFEST, "--events", BAD_DAY_SAMPLE,
          "--output", "r.html"]),
        ("diff-bad-day-sample",
         ["diff", GOOD_MANIFEST, GOOD_MANIFEST,
          "--events-a", BAD_DAY_SAMPLE, "--events-b", BAD_DAY_SAMPLE]),
        ("report-bad-disk-trace",
         ["report", GOOD_MANIFEST, "--disk-trace", BAD_DISK_TRACE,
          "--output", "r.html"]),
        ("diff-bad-disk-trace",
         ["diff", GOOD_MANIFEST, GOOD_MANIFEST,
          "--disk-trace-a", BAD_DISK_TRACE, "--disk-trace-b", BAD_DISK_TRACE]),
        ("report-bad-span-trace",
         ["report", GOOD_MANIFEST, "--trace", BAD_SPAN_TRACE,
          "--output", "r.html"]),
        ("diff-bad-registry-document",
         ["diff", BAD_RUN_ID, GOOD_MANIFEST, "--runs-dir", BAD_RUNS_DIR]),
    ]
    cases += [
        (f"diff-{name}", ["diff", f"{name}.json", GOOD_MANIFEST])
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
         ["diff", GOOD_MANIFEST, GOOD_MANIFEST, "--rel-threshold", "nan"]),
        ("diff-abs-floor-inf",
         ["diff", GOOD_MANIFEST, GOOD_MANIFEST, "--abs-floor", "inf"]),
        ("lint-no-such-path", ["lint", "no-such-dir"]),
    ]
    return cases


#: ``(case id, repro-ffs argv)``: each must exit 2 with one stderr line.
CASES = _cases()
