"""HTML run-report tests: self-containment, sections, escaping, CLI."""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.obs.report_html import build_report


@pytest.fixture
def manifest():
    return {
        "schema": "repro.obs.manifest/v2",
        "command": "experiment",
        "config": {"preset": "tiny", "name": "all"},
        "environment": {"python": "3.11.7", "platform": "linux"},
        "started_at": 1_700_000_000.0,
        "wall_seconds": 12.5,
        "metrics": {
            "disk.io_ms": {
                "type": "histogram", "count": 10, "sum": 55.0,
                "min": 1.0, "max": 10.0, "mean": 5.5,
                "buckets": [[2, 2], [5, 3], [10, 5], ["+inf", 0]],
            },
        },
        "timings": {"fig1": 2.5, "fig2": 10.0},
        "profile": {
            "experiment.fig1": [
                {"function": "replay.py:10(apply)", "ncalls": 4,
                 "tottime_s": 1.25, "cumtime_s": 2.0},
            ],
        },
    }


@pytest.fixture
def day_events():
    rows = []
    for day in range(5):
        for label, score in (("FFS", 1.0 - day * 0.05),
                             ("Realloc", 1.0 - day * 0.02)):
            rows.append({
                "seq": len(rows) + 1, "type": "day_sample", "label": label,
                "day": day, "layout_score": score,
                "utilization": 0.1 * day,
            })
    return rows


@pytest.fixture
def spans():
    return [
        {"span_id": 1, "parent_id": None, "name": "cli.experiment",
         "wall_elapsed_s": 12.5, "sim_elapsed": None, "attrs": {}},
        {"span_id": 2, "parent_id": 1, "name": "experiment.fig1",
         "wall_elapsed_s": 2.5, "sim_elapsed": 4.0,
         "attrs": {"preset": "tiny"}},
    ]


class TestBuildReport:
    def test_contains_every_section(self, manifest, day_events, spans):
        html = build_report(manifest, events=day_events, spans=spans)
        for needle in (
            "<svg", "Layout score", "Utilization", "Distributions",
            "disk.io_ms", "Span tree", "experiment.fig1",
            "Experiment wall times", "Profile", "Event log",
        ):
            assert needle in html, f"missing section marker {needle!r}"

    def test_is_self_contained(self, manifest, day_events, spans):
        html = build_report(manifest, events=day_events, spans=spans)
        assert html.startswith("<!DOCTYPE html>")
        for forbidden in ("http://", "https://", "<script", "@import",
                          "url("):
            assert forbidden not in html

    def test_two_series_get_a_legend_with_both_labels(
        self, manifest, day_events
    ):
        html = build_report(manifest, events=day_events)
        assert 'class="legend"' in html
        assert "FFS" in html and "Realloc" in html
        # Series colors come from the fixed categorical order.
        assert "var(--series-1)" in html and "var(--series-2)" in html

    def test_compare_run_overlays_with_suffixed_labels(
        self, manifest, day_events
    ):
        compare_rows = [dict(row) for row in day_events]
        html = build_report(
            manifest, events=day_events[:10],
            compare_manifest=dict(manifest),
            compare_events=compare_rows[:10],
        )
        assert "Compared runs" in html
        assert "(compare)" in html

    def test_untrusted_text_is_escaped(self, manifest):
        evil = dict(manifest)
        evil["command"] = 'experiment <script>alert("x")</script>'
        rows = [{
            "seq": 1, "type": "day_sample", "label": "<b>bold</b>",
            "day": 0, "layout_score": 1.0, "utilization": 0.1,
        }]
        html = build_report(evil, events=rows)
        assert "<script" not in html
        assert "<b>bold</b>" not in html
        assert "&lt;b&gt;" in html

    def test_sibling_span_runs_are_folded(self, manifest):
        spans = [
            {"span_id": 1, "parent_id": None, "name": "cli.age",
             "wall_elapsed_s": 5.0, "sim_elapsed": None, "attrs": {}},
        ] + [
            {"span_id": i, "parent_id": 1, "name": "replay.day",
             "wall_elapsed_s": 0.05, "sim_elapsed": 1.0, "attrs": {}}
            for i in range(2, 52)
        ]
        html = build_report(manifest, spans=spans)
        assert "50 × <strong>replay.day</strong>" in html
        # Folded: one summary line, not fifty items.
        assert html.count("replay.day") == 1

    def test_empty_manifest_still_renders(self):
        html = build_report({"schema": "repro.obs.manifest/v2",
                             "command": "age"})
        assert html.startswith("<!DOCTYPE html>")
        assert "run report" in html

    def test_empty_event_log_renders_without_curves(self, manifest):
        html = build_report(manifest, events=[])
        assert html.startswith("<!DOCTYPE html>")
        assert "Layout score" not in html
        assert "Layout heatmaps" not in html

    def test_events_without_day_samples_render(self, manifest):
        rows = [
            {"seq": 1, "type": "cache_hit", "hint": "tiny"},
            {"seq": 2, "type": "experiment_start", "name": "fig1"},
        ]
        html = build_report(manifest, events=rows)
        assert "Event log" in html
        assert "Layout score" not in html

    def test_zero_duration_spans_render(self, manifest):
        spans = [
            {"span_id": 1, "parent_id": None, "name": "cli.age",
             "wall_elapsed_s": 0.0, "sim_elapsed": None, "attrs": {}},
            {"span_id": 2, "parent_id": 1, "name": "replay.day",
             "wall_elapsed_s": 0.0, "sim_elapsed": 0.0, "attrs": {}},
        ]
        html = build_report(manifest, spans=spans)
        assert "Span tree" in html
        assert "cli.age" in html

    def test_truncation_marker_surfaces_dropped_count(self, manifest):
        rows = [
            {"seq": 1, "type": "cache_hit", "hint": "tiny"},
            {"seq": 9, "type": "log_truncated", "dropped": 42},
        ]
        html = build_report(manifest, events=rows)
        assert "42 events dropped" in html
        # The marker itself is bookkeeping, not an event row.
        assert "log_truncated" not in html


class TestNewSections:
    def _heat_events(self):
        rows = []
        for day in range(3):
            rows.append({
                "seq": day + 1, "type": "day_sample", "label": "FFS",
                "day": day, "layout_score": 0.9, "utilization": 0.5,
                "cg_occupancy": [0.2 + 0.1 * day, 0.4],
                "cg_frag": [0.1, 0.3],
            })
        return rows

    def _trace_rows(self):
        return [
            {"seq": i + 1, "kind": "read", "byte": 0, "nbytes": 8192,
             "cyl": i * 10, "seek_cyls": 10 if i else 0,
             "seek_ms": 2.0 if i else 0.0, "rot_ms": 1.0,
             "transfer_ms": 0.5, "service_ms": 3.5,
             "lost_rot": False, "buf_hit": False}
            for i in range(4)
        ]

    def test_heatmap_section_from_day_samples(self, manifest):
        html = build_report(manifest, events=self._heat_events())
        assert "Layout heatmaps" in html
        assert "occupancy" in html
        assert "fill-opacity" in html

    def test_day_samples_without_cg_vectors_skip_heatmaps(
        self, manifest, day_events
    ):
        # Older event logs carry no cg_occupancy; the report must not
        # invent an empty panel for them.
        html = build_report(manifest, events=day_events)
        assert "Layout score" in html
        assert "Layout heatmaps" not in html

    def test_disktrace_section_with_histograms(self, manifest):
        html = build_report(manifest, disk_trace=self._trace_rows())
        assert "Disk I/O trace" in html
        assert "Seek distance" in html
        assert "Inter-request" in html

    def test_disktrace_truncation_is_noted(self, manifest):
        rows = self._trace_rows() + [
            {"seq": 5, "type": "log_truncated", "dropped": 5},
        ]
        html = build_report(manifest, disk_trace=rows)
        assert "Disk I/O trace" in html
        assert "5" in html and "dropped" in html

    def test_history_section_draws_trends(self, manifest):
        runs = [
            {"schema": "repro.obs.runstore/v1", "id": f"r{i}",
             "command": "experiment", "preset": "tiny",
             "started_at": 1_700_000_000.0 + i,
             "summary": {
                 "layout_scores": {"FFS": 0.7 + 0.01 * i},
                 "throughput_mb_s": 2.0 + 0.1 * i,
             }}
            for i in range(3)
        ]
        html = build_report(manifest, runs=runs)
        assert "Run history" in html
        assert "recorded run" in html

    def test_all_new_sections_stay_self_contained(self, manifest):
        html = build_report(
            manifest, events=self._heat_events(),
            disk_trace=self._trace_rows(),
            runs=[{"schema": "repro.obs.runstore/v1", "id": "r0",
                   "started_at": 1.0, "summary": {}}],
        )
        for forbidden in ("http://", "https://", "<script", "@import",
                          "url("):
            assert forbidden not in html


class TestBoundedLogEdgeCases:
    """Truncated event logs and pre-heatmap captures must degrade, not
    raise: the EventLog ring buffer drops day samples under memory
    pressure and old logs predate the per-CG vectors entirely."""

    def _truncated_events(self):
        # A bounded log: early days survived with CG vectors, later
        # days lost them (emitted after the ring wrapped), and the
        # log_truncated marker records the loss.
        rows = []
        for day in range(3):
            row = {
                "seq": day + 1, "type": "day_sample", "label": "FFS",
                "day": day, "layout_score": 0.9 - 0.1 * day,
                "utilization": 0.2 * (day + 1),
            }
            if day < 2:
                row["cg_occupancy"] = [0.2, 0.4]
                row["cg_frag"] = [0.1, 0.3]
            rows.append(row)
        rows.append({"seq": 99, "type": "log_truncated", "dropped": 7})
        return rows

    def test_heatmap_series_tolerates_missing_cg_vectors(self):
        from repro.obs.heatmap import heatmap_series

        series = heatmap_series(self._truncated_events())
        assert len(series) == 1
        # Only the days that carried vectors become matrix rows.
        assert len(series[0].occupancy) == 2

    def test_build_report_renders_a_truncated_mixed_log(self, manifest):
        html = build_report(manifest, events=self._truncated_events())
        assert "Layout score" in html
        assert "Layout heatmaps" in html
        assert "7 events dropped" in html

    def test_diff_occupancy_delta_skips_vectorless_days(self):
        from repro.obs.diff import RunArtifacts, diff_runs

        base = {"schema": "repro.obs.manifest/v2", "command": "age"}
        a = RunArtifacts("a", dict(base), events=self._truncated_events())
        b = RunArtifacts("b", dict(base), events=self._truncated_events())
        pair = diff_runs(a, b)["timeline"]["pairs"][0]
        # Three shared days, but the delta matrix only keeps the two
        # that carried vectors on both sides.
        assert pair["days"] == [0, 1, 2]
        assert pair["occupancy_delta"]["days"] == [0, 1]

    def test_diff_timeline_without_any_cg_vectors(self, day_events):
        from repro.obs.diff import RunArtifacts, diff_runs
        from repro.obs.report_html import build_diff_report

        base = {"schema": "repro.obs.manifest/v2", "command": "age"}
        a = RunArtifacts("a", dict(base), events=list(day_events))
        b = RunArtifacts("b", dict(base), events=list(day_events))
        document = diff_runs(a, b)
        for pair in document["timeline"]["pairs"]:
            assert pair["occupancy_delta"] is None
        html = build_diff_report(document)
        assert html.startswith("<!DOCTYPE html>")

    def test_diff_report_of_truncated_logs_is_self_contained(self):
        from repro.obs.diff import RunArtifacts, diff_runs
        from repro.obs.report_html import build_diff_report

        base = {"schema": "repro.obs.manifest/v2", "command": "age"}
        a = RunArtifacts("a", dict(base), events=self._truncated_events())
        b_rows = self._truncated_events()
        for row in b_rows:
            if row.get("type") == "day_sample":
                row["layout_score"] = 0.5
        b = RunArtifacts("b", dict(base), events=b_rows)
        html = build_diff_report(diff_runs(a, b))
        for forbidden in ("http://", "https://", "<script", "@import",
                          "url("):
            assert forbidden not in html
        assert "divergence" in html


class TestReportCli:
    def test_report_subcommand_end_to_end(self, tmp_path, capsys):
        manifest = obs.RunManifest(command="experiment",
                                   config={"preset": "tiny"})
        manifest.finish(1.0, {})
        manifest.timings = {"fig1": 1.0}
        manifest_path = tmp_path / "m.json"
        with open(manifest_path, "w") as fp:
            manifest.dump(fp)
        events_path = tmp_path / "e.jsonl"
        log = obs.EventLog()
        for day in range(3):
            log.emit("day_sample", label="FFS", day=day,
                     layout_score=1.0 - day * 0.1, utilization=0.2)
        with open(events_path, "w") as fp:
            log.write_jsonl(fp)
        output = tmp_path / "r.html"
        assert main([
            "report", str(manifest_path),
            "--events", str(events_path),
            "--output", str(output),
        ]) == 0
        capsys.readouterr()
        html = output.read_text()
        assert "<svg" in html and "Layout score" in html

    @pytest.mark.parametrize("flag", ["--events", "--disk-trace"])
    @pytest.mark.parametrize("line", ["42", "[1, 2]"])
    def test_non_object_jsonl_line_exits_two(
        self, tmp_path, capsys, flag, line
    ):
        manifest = obs.RunManifest(command="experiment")
        manifest.finish(0.1, {})
        manifest_path = tmp_path / "m.json"
        with open(manifest_path, "w") as fp:
            manifest.dump(fp)
        rows_path = tmp_path / "rows.jsonl"
        rows_path.write_text('{"seq": 1, "type": "cache_hit"}\n' + line + "\n")
        assert main([
            "report", str(manifest_path), flag, str(rows_path),
            "--output", str(tmp_path / "r.html"),
        ]) == 2
        err = capsys.readouterr().err
        assert "line 2: expected a JSON object" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "r.html").exists()

    def test_missing_manifest_exits_two(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.json")]) == 2
        assert "report:" in capsys.readouterr().err

    def test_report_does_not_open_a_telemetry_session(
        self, tmp_path, capsys
    ):
        # `report --events` names an *input*; it must not be mistaken
        # for the capture flag and spin up a session.
        manifest = obs.RunManifest(command="age")
        manifest.finish(0.1, {})
        manifest_path = tmp_path / "m.json"
        with open(manifest_path, "w") as fp:
            manifest.dump(fp)
        events_path = tmp_path / "e.jsonl"
        events_path.write_text("")
        assert main([
            "report", str(manifest_path), "--events", str(events_path),
            "--output", str(tmp_path / "r.html"),
        ]) == 0
        err = capsys.readouterr().err
        assert "[obs]" not in err
        # The input file was read, not overwritten with a capture log.
        assert events_path.read_text() == ""
