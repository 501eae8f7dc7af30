"""Pinned bytes of the read side that ``tests/test_runfile.py`` does not
pin: ``inspect`` in every form, ``diff`` with placement on both sides and
with flash-substrate numbers on one, ``report`` with a profile, disk rows
and run history, and ``history``, ``history --drift`` and ``stats``.

The run registry these read is written here into ``tmp_path`` with
fixed ids, start times and environments, so no committed fixture grows.
Every HTML rendering, pinned here or in ``test_runfile``, must also be
well-formed (:mod:`tests.html_check`).
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path
from typing import Callable, Dict

import pytest

from repro.analysis.placement import (
    SCHEMA as INSPECT_SCHEMA,
    inspect_filesystem,
    render_comparison,
    render_inspection,
)
from repro.cli import main
from repro.ffs.image import dump_filesystem
from repro.obs.export import write_json
from repro.obs.manifest import RunManifest
from repro.obs.report_html import build_inspect_report
from repro.obs.runfile import Run, write_run
from tests.html_check import assert_well_formed
from tests.test_runfile import FIXTURES, RENDERED, render_case

ENVIRONMENT = {
    "implementation": "CPython", "machine": "x86_64",
    "platform": "linux", "python": "3.11.7",
}

#: ``(id, config, summary)`` of each recorded run, oldest first: four
#: disk-backed agings with a sliding FFS score, then one flash run.
REGISTRY = (
    ("1790000000000-age", {"policy": "ffs", "preset": "tiny"},
     {"layout_scores": {"FFS": 0.9312}, "throughput_mb_s": 1.84,
      "lost_rotations": 120, "seek_p50_ms": 4.0, "seek_p99_ms": 16.0,
      "wall_seconds": 1.25}),
    ("1790000360000-age", {"policy": "realloc", "preset": "tiny"},
     {"layout_scores": {"FFS + Realloc": 0.9744}, "throughput_mb_s": 2.31,
      "lost_rotations": 80, "seek_p50_ms": 3.0, "seek_p99_ms": 12.0,
      "wall_seconds": 1.5}),
    ("1790000720000-age", {"policy": "ffs", "preset": "tiny"},
     {"layout_scores": {"FFS": 0.9101}, "throughput_mb_s": 1.62,
      "lost_rotations": 150, "seek_p50_ms": 5.0, "seek_p99_ms": 20.0,
      "wall_seconds": 1.3}),
    ("1790001080000-age", {"policy": "both", "preset": "tiny"},
     {"layout_scores": {"FFS": 0.895, "FFS + Realloc": 0.9702},
      "throughput_mb_s": 1.55, "lost_rotations": 170, "seek_p50_ms": 5.0,
      "seek_p99_ms": 24.0, "wall_seconds": 2.6}),
    ("1790001440000-experiment",
     {"backend": "ssd", "name": "fig4", "preset": "tiny"},
     {"write_amplification": 1.2731, "flash_erases": 42,
      "gc_moved_pages": 310, "ssd_throughput_mb_s": 88.5,
      "wall_seconds": 0.9}),
)

#: A ``--profile`` table for the report's profile section.
PROFILE = {
    "experiment.table2": [
        {"function": "ffs/filesystem.py:212(_grow)", "ncalls": "1840/1702",
         "tottime_s": 0.0123, "cumtime_s": 0.0456},
        {"function": "disk/model.py:88(access)", "ncalls": "640",
         "tottime_s": 0.0041, "cumtime_s": 0.0049},
    ],
}


def _registry(root: Path) -> Path:
    root.mkdir()
    for run_id, config, summary in REGISTRY:
        command = run_id.split("-", 1)[1]
        counter = (
            "ssd.flash_erases" if "flash_erases" in summary
            else "disk.lost_rotations"
        )
        manifest = RunManifest(
            command=command, config=config, environment=dict(ENVIRONMENT),
            started_at=int(run_id.split("-")[0]) / 1000.0,
            wall_seconds=summary["wall_seconds"],
            metrics={counter: {"type": "counter", "value": 7}},
        )
        with open(root / f"{run_id}.jsonl", "w") as fp:
            write_run(fp, Run(manifest, id=run_id, summary=summary))
    return root


def _profiled_run(path: Path) -> Path:
    """``table2.jsonl`` (which carries disk rows) with a profile in its
    header."""
    lines = (FIXTURES / "table2.jsonl").read_text().splitlines(True)
    header = json.loads(lines[0])
    header["profile"] = PROFILE
    path.write_text(json.dumps(header, sort_keys=True) + "\n"
                    + "".join(lines[1:]))
    return path


def _cli(argv, output: Path) -> bytes:
    """What ``argv`` writes to ``output`` (which is then removed), or to
    stdout when it writes no file."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main([str(word) for word in argv]) == 0
    if not output.exists():
        return stdout.getvalue().encode()
    rendered = output.read_bytes()
    output.unlink()
    return rendered


def _json(obj) -> bytes:
    buffer = io.StringIO()
    write_json(buffer, obj)
    return buffer.getvalue().encode()


@pytest.fixture(scope="module")
def documents(aged_ffs, aged_realloc):
    return (
        inspect_filesystem(aged_ffs.fs, label="ffs"),
        inspect_filesystem(aged_realloc.fs, label="realloc"),
    )


@pytest.fixture
def views(documents, aged_ffs, aged_realloc, tmp_path) -> Dict[str, Callable]:
    """Case name -> a thunk returning the rendered bytes."""
    ffs, realloc = documents
    runs = _registry(tmp_path / "runs")
    out = tmp_path / "out.html"
    images = {}
    for name, aged in (("ffs.img", aged_ffs), ("realloc.img", aged_realloc)):
        images[name] = tmp_path / name
        with open(images[name], "w") as fp:
            dump_filesystem(aged.fs, fp)
    placed = [
        "diff", FIXTURES / "age-ffs.jsonl", FIXTURES / "age-realloc.jsonl",
        "--image-a", images["ffs.img"], "--image-b", images["realloc.img"],
    ]
    flash = ["diff", REGISTRY[0][0], REGISTRY[-1][0], "--runs-dir", runs]
    return {
        "inspect ffs": lambda: render_inspection(ffs).encode(),
        "inspect ffs realloc comparison":
            lambda: render_comparison(ffs, realloc).encode(),
        "inspect ffs realloc --json": lambda: _json(
            {"schema": INSPECT_SCHEMA, "documents": [ffs, realloc]}
        ),
        "inspect ffs realloc --html":
            lambda: build_inspect_report([ffs, realloc]).encode(),
        "diff placed": lambda: _cli(placed, out),
        "diff placed --json": lambda: _cli(placed + ["--json"], out),
        "diff placed --html": lambda: _cli(placed + ["--html", out], out),
        "diff disk flash": lambda: _cli(flash, out),
        "diff disk flash --json": lambda: _cli(flash + ["--json"], out),
        "diff disk flash --html": lambda: _cli(flash + ["--html", out], out),
        "report profiled --runs-dir": lambda: _cli(
            ["report", _profiled_run(tmp_path / "profiled.jsonl"),
             "--runs-dir", runs, "--output", out], out,
        ),
        "history": lambda: _cli(["history", "--runs-dir", runs], out),
        "history --json":
            lambda: _cli(["history", "--runs-dir", runs, "--json"], out),
        "history --drift":
            lambda: _cli(["history", "--runs-dir", runs, "--drift"], out),
        "history --drift --json": lambda: _cli(
            ["history", "--runs-dir", runs, "--drift", "--json"], out,
        ),
        "stats table2": lambda: _cli(["stats", FIXTURES / "table2.jsonl"], out),
    }


#: Case name -> SHA-256 of the rendered bytes.
PINNED = {
    "diff disk flash": "1f041bca88d2260862c5d8f080efb3f0b86a7475dfe15310622e24f119044f32",
    "diff disk flash --html": "19b004ebee01583e5d96d3bc99c907e116a8a2782de20757d59abde47d8dbea0",
    "diff disk flash --json": "de17e67f1ab9e9322544029edc601e900435a0c2e72f7adfa5a7d2cdc760660b",
    "diff placed": "23390f7aef774264edabe32856a7a5e066b033ce757390c4c7d67a7bc74ed043",
    "diff placed --html": "4c6ccbbe98fca6cf1313566a40010330b7b6f88366b0c047127e6c5f2d0f46a1",
    "diff placed --json": "9ee918ee42c9d14c7995640944905d8f96078ed933825e9525f17fbdf8ab1488",
    "history": "e195544a1bae3d6011a2c391b459b7deae65f328c74dad81edff0abeaca37ba2",
    "history --drift": "2065bd337f7d80b153916b1ecae06b35e9a32d06fa9a7e0579ee63622895ded5",
    "history --drift --json": "15b84cf369c9a2f7e4e0a806bcec7f3e3e841e2a01f506ce82c7d399e3cca011",
    "history --json": "7853ca504c530074ef6b42053e166ba0b90a289be3ddb36a57ccae9b92ac2fc0",
    "inspect ffs": "3cd0bed0d4bd6bca9b4c479306bda50968ef28cf83095d4f7b59a743f90d40ac",
    "inspect ffs realloc --html": "313c7c1d2711a4b61d05310ae2ce90a9fa0c603a13df3aebfe0fbb95ee2a2478",
    "inspect ffs realloc --json": "0952fbbf167a7c7ebc4163123b261c0001ed5a86ee9348c8fcc87775f1aa0f19",
    "inspect ffs realloc comparison": "0fc0dad932f59723d0a27712a46e717059586b273f0e7f05a339cfee43edef2b",
    "report profiled --runs-dir": "98b3faee666494a1f8ae876251403ceed966fdade7efdbb4874a0a5f43824b7b",
    "stats table2": "7bcd210f0c5bbfc1727876647fafc6ae7683bf8213bf005d24f847eef8169bc8",
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_view_renders_its_pinned_bytes(case, views):
    rendered = views[case]()
    assert hashlib.sha256(rendered).hexdigest() == PINNED[case]


def test_every_view_is_pinned(views):
    assert set(views) == set(PINNED)


@pytest.mark.parametrize("case", sorted(c for c in PINNED if "html" in c
                                        or c.startswith("report")))
def test_pinned_html_is_well_formed(case, views):
    assert_well_formed(views[case]().decode())


@pytest.mark.parametrize("case", sorted(c for c in RENDERED if "html" in c
                                        or c.startswith("report")))
def test_runfile_html_is_well_formed(case, tmp_path):
    assert_well_formed(render_case(case, tmp_path).decode())
