"""The run file: one JSONL file per run, written once and read by one
loader (:mod:`repro.obs.runfile`).

``tests/fixtures/runs`` holds three tiny runs (``age --preset tiny`` per
policy, and ``experiment table2 --preset tiny``, whose disk log is
small) converted from the manifest, span, event and disk-trace files
the same runs wrote before run files existed.  The SHA-256s below are
of what ``report`` and ``diff`` rendered from those four files then;
rendering from the run files must give the same bytes.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from repro import obs
from repro.cli import main
from repro.errors import MalformedInputError
from repro.obs.manifest import RunManifest
from repro.obs.runfile import Run, load_run, read_run, write_run

FIXTURES = Path(__file__).parent / "fixtures" / "runs"

#: ``argv`` (fixture names for run files) -> SHA-256 of its stdout, or
#: of the file its ``--output``/``--html`` names.  The age runs wrote
#: empty disk traces (aging prices no I/O), so their diffs were
#: rendered without them.
RENDERED = {
    "report age-ffs": "73383b5d83fb5ac03c3c1ed9c5a3d1cbce69b3d3d982c06c0ad36da3c4d6374e",
    "report age-realloc": "71d665c4878c5ea377eb5666020d1c80ad492ee834c896db6ab49b22cf1c6bd5",
    "report table2": "d4bc0a8a8d6854a634a0f6f22add6e05d3b24516af7cb3cbb2fe1b314f3a42b5",
    "report age-ffs --compare age-realloc": "da6a8bcbde2971d00f0d111315bce6e51f979964d49d5196c74c77e87ae1b6ff",
    "diff age-ffs age-ffs": "4c0c072f082de9296b365e5c8a24af47d095605d77b08598d16ee45230e6d9c9",
    "diff age-ffs age-ffs --json": "6a07e90843193b86514fe910b755c2ac2eb49eb651fe144953b0ca40e6184f58",
    "diff age-ffs age-ffs --html": "30da251f336afc67fd5398f805cea86a8a98ae4d7de18ce8bd0a235c944d03c5",
    "diff table2 table2": "154e230f0c840b8723f6ebf3fbb892a8469af30ecccb7fed829b50bfa8818fcd",
    "diff table2 table2 --json": "71eb7602ad2035a8eaa272ed289037d0ec44de65dae51242fcda83bf4c11a7c4",
    "diff table2 table2 --html": "c40e08e2fadf7625d69dfb2d5a961eef760e9a43f342fadabc967a2d33e312da",
    "diff age-ffs age-realloc": "55114bfa8a3eb577d77bf18f5038540031f62636c6a151b3e6c951a5b965da53",
    "diff age-ffs age-realloc --json": "0866b487cb6c07de06897aa38be441c88f7c5e86e6c90a4f1e1778fbe9dc118d",
    "diff age-ffs age-realloc --html": "f4c4ccc6f4ff6a0528a90c6cc67f75556ff6eaabc78c521103087c2f1c9a06b9",
}


def render_case(case, tmp_path):
    """The bytes ``case`` (a :data:`RENDERED` key) renders."""
    command, *words = case.split()
    argv = [command]
    for word in words:
        is_run = not word.startswith("--")
        argv.append(str(FIXTURES / f"{word}.jsonl") if is_run else word)
    output = tmp_path / "out.html"
    if command == "report":
        argv += ["--output", str(output)]
    elif "--html" in argv:
        argv.append(str(output))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    return (
        output.read_bytes() if output.exists()
        else stdout.getvalue().encode()
    )


@pytest.mark.parametrize("case", sorted(RENDERED))
def test_report_and_diff_render_the_four_file_bytes(case, tmp_path):
    rendered = render_case(case, tmp_path)
    assert hashlib.sha256(rendered).hexdigest() == RENDERED[case]


def test_fixtures_stay_small():
    assert sum(p.stat().st_size for p in FIXTURES.iterdir()) <= 200_000


def _logs():
    tracer = obs.Tracer()
    with tracer.span("cli.age"):
        tracer.end(tracer.begin("replay.day", sim=0), sim=1)
    events = obs.EventLog(max_rows=1)
    events.emit("cache_hit", key="a")
    events.emit("cache_miss", key="b")
    disk = obs.DiskTrace()
    disk.record("read", 0, 8192, 3, 1, 0.5, 1.0, 0.25, 1.75, False, True)
    return tracer, events, disk


def _manifest():
    manifest = RunManifest(command="age", config={"preset": "tiny"},
                           started_at=1_700_000_000.0)
    manifest.finish(1.5, {"disk.reads": {"type": "counter", "value": 1}})
    return manifest


class TestWriteAndRead:
    def test_round_trip_keeps_every_row(self):
        tracer, events, disk = _logs()
        buffer = io.StringIO()
        write_run(buffer, Run(_manifest()), [tracer, events, disk])
        run = read_run(io.StringIO(buffer.getvalue()))
        assert run.manifest == _manifest()
        assert run.spans == tracer.rows()
        assert run.events == events.rows() + [
            {"seq": 3, "type": "log_truncated", "dropped": 1},
        ]
        assert run.disk == disk.rows()
        assert run.id is None and run.summary is None

    def test_rows_are_tagged_and_stripping_the_tag_gives_the_row(self):
        tracer, events, disk = _logs()
        buffer = io.StringIO()
        write_run(buffer, Run(_manifest()), [tracer, events, disk])
        rows = [json.loads(line) for line in buffer.getvalue().splitlines()]
        assert [row["row"] for row in rows] == [
            "header", "span", "span", "event", "event", "disk", "metrics",
        ]
        disk_line = buffer.getvalue().splitlines()[5]
        stripped = {k: v for k, v in json.loads(disk_line).items()
                    if k != "row"}
        assert stripped == disk.rows()[0]
        assert "metrics" not in rows[0]
        assert rows[-1]["metrics"] == _manifest().metrics

    def test_kinds_without_rows_read_as_none(self):
        buffer = io.StringIO()
        write_run(buffer, Run(_manifest()), [obs.Tracer(), None, None])
        run = read_run(io.StringIO(buffer.getvalue()))
        assert run.spans == [] and run.events is None and run.disk is None

    def test_header_only_read_stops_after_the_header(self):
        buffer = io.StringIO()
        write_run(buffer, Run(_manifest(), id="r1", summary={"x": 1.0}))
        header = buffer.getvalue().splitlines()[0]
        # The rest of the file is never looked at.
        run = read_run(io.StringIO(header + "\nnot json\n"), header_only=True)
        assert (run.id, run.summary) == ("r1", {"x": 1.0})
        assert run.manifest.metrics == {}

    def test_a_file_without_its_metrics_row_is_truncated(self, tmp_path):
        buffer = io.StringIO()
        write_run(buffer, Run(_manifest()))
        path = tmp_path / "cut.jsonl"
        path.write_text(buffer.getvalue().splitlines()[0] + "\n")
        with pytest.raises(MalformedInputError,
                           match=r"^cut\.jsonl: no metrics row"):
            load_run(path)


class TestCapture:
    def test_disk_rows_need_a_run_file(self, capsys):
        assert main(["age", "--preset", "tiny", "--disk-rows"]) == 2
        assert "--disk-rows needs --run" in capsys.readouterr().err

    def test_run_and_record_write_the_same_file(self, tmp_path, capsys):
        run_file = tmp_path / "run.jsonl"
        assert main([
            "experiment", "table1", "--preset", "tiny",
            "--run", str(run_file), "--record",
            "--runs-dir", str(tmp_path / "runs"),
        ]) == 0
        capsys.readouterr()
        (recorded,) = (tmp_path / "runs").iterdir()
        assert recorded.read_bytes() == run_file.read_bytes()
        run = load_run(run_file)
        assert run.id == recorded.stem and run.summary is not None
