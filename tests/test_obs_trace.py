"""Unit tests for span tracing and the manifest round-trip."""

import io
import json

import pytest

from repro.errors import MalformedInputError
from repro.obs.manifest import RunManifest, environment_info
from repro.obs.profiling import PhaseProfiler
from repro.obs.runfile import Run, read_run, write_run
from repro.obs.trace import Tracer
from tests.rowlog_cases import RowLogCases


class TestTracerRowLog(RowLogCases):
    """The tracer keeps the bound, ``seq``, adopt and truncation rules
    of every row log."""

    def make(self, max_rows=None):
        return Tracer(max_rows)

    def add(self, log, n):
        row = log.begin("step", n=n)
        log.end(row)
        return row if row in log.rows() else None


class TestSpanNesting:
    def test_child_records_parent(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner"):
                pass
        outer, inner = tr.rows()  # begin order: parent first
        assert inner["name"] == "inner"
        assert inner["parent_id"] == outer["seq"]
        assert outer["parent_id"] is None

    def test_siblings_share_parent(self):
        tr = Tracer()
        with tr.span("root"):
            with tr.span("a"):
                pass
            with tr.span("b"):
                pass
        spans = {row["name"]: row for row in tr.rows()}
        assert spans["a"]["parent_id"] == spans["root"]["seq"]
        assert spans["b"]["parent_id"] == spans["root"]["seq"]
        assert spans["a"]["seq"] != spans["b"]["seq"]

    def test_begin_end_across_iterations(self):
        tr = Tracer()
        for day in range(3):
            tr.end(tr.begin("replay.day", sim=day, day=day), sim=day + 1)
        spans = tr.rows()
        assert [s["sim_elapsed"] for s in spans] == [1, 1, 1]
        assert all(s["wall_elapsed_s"] >= 0 for s in spans)

    def test_end_closes_open_descendants(self):
        tr = Tracer()
        outer = tr.begin("outer")
        tr.begin("inner")  # never explicitly ended
        tr.end(outer)
        assert all(row["wall_elapsed_s"] is not None for row in tr.rows())

    def test_ending_unopened_span_rejected(self):
        tr = Tracer()
        span = tr.begin("a")
        tr.end(span)
        with pytest.raises(ValueError):
            tr.end(span)

    def test_exception_still_closes_span(self):
        tr = Tracer()
        with pytest.raises(RuntimeError):
            with tr.span("doomed"):
                raise RuntimeError("boom")
        assert tr.rows()[0]["wall_elapsed_s"] is not None

    def test_span_is_stored_at_begin(self):
        tr = Tracer()
        with tr.span("open") as row:
            assert tr.rows() == [row]
            assert row["wall_elapsed_s"] is None
        assert row["wall_elapsed_s"] >= 0

    def test_dropped_span_still_nests_and_ends(self):
        tr = Tracer(1)
        with tr.span("kept") as kept:
            with tr.span("dropped") as dropped:
                assert dropped["parent_id"] == kept["seq"]
        assert tr.rows() == [kept]
        assert tr.dropped == 1
        assert dropped["wall_elapsed_s"] >= 0


class TestTracerProfiler:
    def test_span_profiles_the_same_named_phase(self):
        profiler = PhaseProfiler()
        tr = Tracer(profiler=profiler)
        with tr.span("cli.experiment"):
            with tr.span("experiment.fig1"):
                sum(range(100))
        tr.end(tr.begin("replay.day"))  # begin/end spans are not phases
        assert profiler.phases() == ["cli.experiment", "experiment.fig1"]


class TestTraceExport:
    def test_jsonl_round_trip(self):
        tr = Tracer()
        with tr.span("outer", preset="tiny"):
            with tr.span("inner", sim=0.0):
                pass
        buf = io.StringIO()
        assert tr.write_jsonl(buf) == 2
        rows = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert [row["row"] for row in rows] == ["span", "span"]
        assert [row["name"] for row in rows] == ["outer", "inner"]
        assert rows[0]["attrs"] == {"preset": "tiny"}
        assert rows[0]["wall_elapsed_s"] >= 0
        assert "span_id" not in rows[0]


class TestManifest:
    def test_json_round_trip(self):
        manifest = RunManifest(
            command="experiment",
            config={"name": "fig1", "preset": "tiny"},
        )
        manifest.finish(1.25, {"disk.reads": {"type": "counter", "value": 7}})
        buf = io.StringIO()
        write_run(buf, Run(manifest))
        buf.seek(0)
        loaded = read_run(buf).manifest
        assert loaded == manifest

    def test_environment_fields(self):
        env = environment_info()
        assert set(env) == {"python", "implementation", "platform", "machine"}

    def test_non_manifest_rejected(self):
        header = '{"row": "header", "schema": "something/else"}\n'
        with pytest.raises(MalformedInputError, match="header: bad schema"):
            read_run(io.StringIO(header))

    def test_non_json_rejected(self):
        with pytest.raises(MalformedInputError, match="invalid JSON"):
            read_run(io.StringIO("not json"))
