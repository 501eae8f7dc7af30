"""Differential-observatory tests: the significance classifier,
``diff_runs``/``render_diff``, registry drift, and the diff CLI."""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.obs.diff import (
    NOISE,
    NOTABLE,
    REGRESSION,
    SCHEMA,
    SCORE_ABS_FLOOR,
    Classifier,
    RunArtifacts,
    detect_drift,
    diff_runs,
    fit_trend,
    lower_is_better,
    render_diff,
    render_drift,
)
from repro.obs.report_html import build_diff_report


def _manifest_dict(command="age", policy="ffs", metrics=None, wall=30.0,
                   started_at=1_700_000_000.0):
    manifest = obs.RunManifest(
        command=command, config={"preset": "tiny", "policy": policy},
    )
    manifest.started_at = started_at
    manifest.finish(wall, metrics or {})
    return manifest.to_dict()


def _metrics(score=0.74, lost=100, label="FFS"):
    return {
        f"replay.{label}.final_score": {"type": "gauge", "value": score},
        "disk.lost_rotations": {"type": "counter", "value": lost},
        "disk.reads": {"type": "counter", "value": 500},
        "disk.seek_time_ms": {
            "type": "histogram", "count": 4, "sum": 14.0,
            "min": 1.0, "max": 8.0, "mean": 3.5,
            "buckets": [[2, 2], [8, 2], ["+inf", 0]],
        },
    }


def _day_events(label="FFS", scores=(1.0, 0.95, 0.9), with_cg=True):
    rows = []
    for day, score in enumerate(scores):
        row = {
            "seq": day + 1, "type": "day_sample", "label": label,
            "day": day, "layout_score": score,
            "utilization": 0.1 * (day + 1),
        }
        if with_cg:
            row["cg_occupancy"] = [0.2 + 0.1 * day, 0.4]
        rows.append(row)
    return rows


class TestClassifier:
    def test_significant_move_in_bad_direction_is_regression(self):
        verdict = Classifier().classify(1.0, 1.3, direction=True)
        assert verdict["label"] == REGRESSION
        assert verdict["delta"] == 0.3
        assert verdict["rel"] == 0.3

    def test_small_relative_move_is_noise(self):
        assert Classifier().classify(1.0, 1.02, direction=True)[
            "label"] == NOISE

    def test_improvement_is_notable_not_regression(self):
        # Higher-is-better metric that went up.
        assert Classifier().classify(0.5, 0.9, direction=False)[
            "label"] == NOTABLE

    def test_unknown_direction_caps_at_notable(self):
        assert Classifier().classify(1.0, 2.0)["label"] == NOTABLE

    def test_zero_baseline_disables_the_relative_gate(self):
        verdict = Classifier().classify(0.0, 0.1)
        assert verdict["label"] == NOTABLE
        assert verdict["rel"] is None  # not Infinity

    def test_abs_floor_absorbs_jitter(self):
        c = Classifier(abs_floor=0.5)
        assert c.classify(1.0, 1.3, direction=True)["label"] == NOISE
        assert c.classify(1.0, 1.6, direction=True)["label"] == REGRESSION

    def test_per_call_floor_overrides_the_default(self):
        c = Classifier()
        assert c.classify(1.0, 1.3, direction=True,
                          abs_floor=0.5)["label"] == NOISE

    def test_thresholds_are_strict_inequalities(self):
        # Exactly at the floor / threshold is still noise.
        assert Classifier(abs_floor=0.25).classify(
            1.0, 1.25, direction=True)["label"] == NOISE
        assert Classifier(rel_threshold=0.25).classify(
            1.0, 1.25, direction=True)["label"] == NOISE

    def test_to_dict_names_the_rules(self):
        doc = Classifier().to_dict()
        assert doc["rel_threshold"] == 0.05
        assert doc["quantiles"] == [0.5, 0.9, 0.99]


class TestPolarity:
    def test_known_bad_direction_metrics(self):
        for name in ("disk.lost_rotations", "disk.seek_time_ms",
                     "trace.service_time_ms", "wall_seconds",
                     "spill_blocks", "freespace.n_runs"):
            assert lower_is_better(name) is True, name

    def test_known_good_direction_metrics(self):
        for name in ("replay.FFS.final_score", "throughput_mb_s",
                     "buffer.hit", "freespace.clusterable_fraction",
                     "freespace.largest_run"):
            assert lower_is_better(name) is False, name

    def test_neutral_metrics_have_no_direction(self):
        for name in ("utilization", "disk.reads", "files_total"):
            assert lower_is_better(name) is None, name


class TestDiffRuns:
    def _side(self, label="a", **kwargs):
        events = kwargs.pop("events", None)
        return RunArtifacts(
            label=label, manifest=_manifest_dict(**kwargs), events=events,
        )

    def test_self_diff_has_zero_significant_deltas(self):
        side = self._side(metrics=_metrics(), events=_day_events())
        document = diff_runs(side, side)
        assert document["schema"] == SCHEMA
        assert document["significant"] == 0
        assert document["counts"][NOTABLE] == 0
        assert document["counts"][REGRESSION] == 0
        assert all(r["label"] == NOISE for r in document["deltas"])

    def test_self_diff_is_deterministic_json(self):
        side = self._side(metrics=_metrics(), events=_day_events())
        one = json.dumps(diff_runs(side, side), sort_keys=True)
        two = json.dumps(diff_runs(side, side), sort_keys=True)
        assert one == two
        assert "Infinity" not in one and "NaN" not in one

    def test_cross_policy_single_labels_are_paired(self):
        a = self._side("a", policy="ffs", metrics=_metrics(0.74))
        b = self._side(
            "b", policy="realloc",
            metrics=_metrics(0.91, label="FFS + Realloc"),
        )
        document = diff_runs(a, b)
        assert document["summary"]["score_pairs"] == [
            ["FFS", "FFS + Realloc"],
        ]
        row = next(
            r for r in document["deltas"]
            if r["name"] == "layout_score[FFS vs FFS + Realloc]"
        )
        # Score went up on a higher-is-better metric: notable.
        assert row["label"] == NOTABLE
        assert row["delta"] == pytest.approx(0.17)

    def test_worsened_counter_is_a_regression_and_ranked_first(self):
        a = self._side("a", metrics=_metrics(lost=100))
        b = self._side("b", metrics=_metrics(lost=200))
        document = diff_runs(a, b)
        assert document["deltas"][0]["name"] == "disk.lost_rotations"
        assert document["deltas"][0]["label"] == REGRESSION
        # The raw counter and its distilled summary echo both regress.
        assert document["counts"][REGRESSION] == 2

    def test_timeline_reports_the_first_divergence_day(self):
        a = self._side("a", events=_day_events(scores=(1.0, 0.9, 0.8)))
        b = self._side("b", events=_day_events(scores=(1.0, 0.9, 0.6)))
        pair = diff_runs(a, b)["timeline"]["pairs"][0]
        assert pair["first_divergence_day"] == 2
        assert pair["score_divergence"] == [
            [0.0, 0.0], [1.0, 0.0], [2.0, pytest.approx(-0.2)],
        ]
        assert pair["occupancy_delta"]["matrix"][0] == [0.0, 0.0]

    def test_equivalent_timelines_never_diverge(self):
        a = self._side("a", events=_day_events())
        b = self._side("b", events=_day_events())
        pair = diff_runs(a, b)["timeline"]["pairs"][0]
        assert pair["first_divergence_day"] is None

    def test_sub_floor_score_wiggle_is_not_divergence(self):
        a = self._side("a", events=_day_events(scores=(0.9, 0.9)))
        b = self._side(
            "b",
            events=_day_events(scores=(0.9 + SCORE_ABS_FLOOR / 2, 0.9)),
        )
        pair = diff_runs(a, b)["timeline"]["pairs"][0]
        assert pair["first_divergence_day"] is None

    def test_wall_clock_jitter_stays_under_its_floor(self):
        a = self._side("a", wall=1.0)
        b = self._side("b", wall=1.15)  # +15% but only +0.15s
        document = diff_runs(a, b)
        row = next(r for r in document["deltas"]
                   if r["name"] == "wall_seconds")
        assert row["label"] == NOISE

    def test_config_changes_are_structural_not_classified(self):
        a = self._side("a", policy="ffs")
        b = self._side("b", policy="realloc")
        changed = diff_runs(a, b)["meta"]["config"]["changed"]
        assert changed["policy"] == ["ffs", "realloc"]

    def test_metrics_present_on_one_side_only_are_listed(self):
        a = self._side("a", metrics=_metrics())
        b = self._side("b", metrics={})
        metrics = diff_runs(a, b)["metrics"]
        assert "disk.lost_rotations" in metrics["only_a"]
        assert metrics["only_b"] == []

    def test_histogram_quantile_shift_is_classified(self):
        slow = _metrics()
        slow["disk.seek_time_ms"] = {
            "type": "histogram", "count": 4, "sum": 120.0,
            "min": 16.0, "max": 64.0, "mean": 30.0,
            "buckets": [[32, 3], [64, 1], ["+inf", 0]],
        }
        a = self._side("a", metrics=_metrics())
        b = self._side("b", metrics=slow)
        document = diff_runs(a, b)
        row = next(r for r in document["deltas"]
                   if r["name"] == "disk.seek_time_ms.p99")
        assert row["label"] == REGRESSION
        hist = document["metrics"]["histograms"][0]
        assert hist["name"] == "disk.seek_time_ms"
        assert any(delta for _, delta in hist["bucket_deltas"])


class TestRenderDiff:
    def test_text_names_sides_and_significant_deltas(self):
        a = RunArtifacts("base", _manifest_dict(metrics=_metrics(lost=100)))
        b = RunArtifacts("cand", _manifest_dict(metrics=_metrics(lost=200),
                                                policy="realloc"))
        text = render_diff(diff_runs(a, b))
        assert "run diff: base -> cand" in text
        assert "REGRESSION" in text
        assert "disk.lost_rotations" in text
        assert "config changes: policy: ffs -> realloc" in text

    def test_equivalent_runs_say_so(self):
        side = RunArtifacts("x", _manifest_dict(metrics=_metrics()))
        text = render_diff(diff_runs(side, side))
        assert "significant deltas: 0" in text
        assert "equivalent under the classifier" in text

    def test_first_divergence_line(self):
        a = RunArtifacts("a", _manifest_dict(),
                         events=_day_events(scores=(1.0, 0.5)))
        b = RunArtifacts("b", _manifest_dict(),
                         events=_day_events(scores=(1.0, 0.9)))
        text = render_diff(diff_runs(a, b))
        assert "first divergence [FFS]: day 1" in text


class TestDrift:
    def test_fit_trend_recovers_a_line(self):
        slope, intercept = fit_trend([1.0, 3.0, 5.0, 7.0])
        assert slope == pytest.approx(2.0)
        assert intercept == pytest.approx(1.0)

    def test_fit_trend_degenerate_inputs(self):
        assert fit_trend([]) == (0.0, 0.0)
        assert fit_trend([4.0]) == (0.0, 4.0)
        assert fit_trend([2.0, 2.0, 2.0]) == (pytest.approx(0.0), 2.0)

    def _runs(self, scores, lost=None):
        runs = []
        for i, score in enumerate(scores):
            summary = {"layout_scores": {"FFS": score}}
            if lost is not None:
                summary["lost_rotations"] = lost[i]
            runs.append({
                "schema": "repro.obs.runstore/v1", "id": f"r{i}",
                "started_at": 1_700_000_000.0 + i, "summary": summary,
            })
        return runs

    def test_consistent_score_slide_is_a_regression(self):
        document = detect_drift(self._runs([0.9, 0.8, 0.7, 0.6]))
        trend = document["trends"][0]
        assert trend["metric"] == "layout_score[FFS]"
        assert trend["label"] == REGRESSION
        assert trend["slope_per_run"] == pytest.approx(-0.1)
        assert document["drifting"] == 1

    def test_flat_series_is_noise(self):
        document = detect_drift(self._runs([0.9, 0.9005, 0.8995, 0.9]))
        assert document["trends"][0]["label"] == NOISE
        assert document["drifting"] == 0

    def test_short_series_are_skipped(self):
        document = detect_drift(self._runs([0.9, 0.5]))
        assert document["trends"] == []
        assert document["window"] == 2

    def test_lower_is_better_series_regresses_upward(self):
        document = detect_drift(
            self._runs([0.9, 0.9, 0.9], lost=[100, 200, 300])
        )
        trend = next(t for t in document["trends"]
                     if t["metric"] == "lost_rotations")
        assert trend["label"] == REGRESSION

    def test_render_drift_tables_the_trends(self):
        text = render_drift(detect_drift(self._runs([0.9, 0.8, 0.7])))
        assert "registry drift over 3 recorded runs" in text
        assert "layout_score[FFS]" in text
        assert "REGRESSION" in text

    def test_render_drift_empty_window_explains(self):
        assert "--record" in render_drift(detect_drift([]))


class TestDiffHtml:
    def _document(self):
        a = RunArtifacts("base", _manifest_dict(metrics=_metrics(lost=100)),
                         events=_day_events(scores=(1.0, 0.9, 0.8)))
        b = RunArtifacts("cand",
                         _manifest_dict(metrics=_metrics(0.9, lost=220),
                                        policy="realloc"),
                         events=_day_events(scores=(1.0, 0.8, 0.6)))
        return diff_runs(a, b)

    def test_report_is_self_contained(self):
        html = build_diff_report(self._document())
        assert html.startswith("<!DOCTYPE html>")
        for forbidden in ("http://", "https://", "<script", "@import",
                          "url("):
            assert forbidden not in html

    def test_report_carries_deltas_and_charts(self):
        html = build_diff_report(self._document())
        assert "run diff" in html
        assert "disk.lost_rotations" in html
        assert "<svg" in html
        assert "lab-regression" in html

    def test_untrusted_labels_are_escaped(self):
        side = RunArtifacts(
            '<script>alert("x")</script>',
            _manifest_dict(metrics=_metrics()),
        )
        html = build_diff_report(diff_runs(side, side))
        assert "<script" not in html

    def test_equivalent_runs_render_an_empty_delta_section(self):
        side = RunArtifacts("x", _manifest_dict(metrics=_metrics()))
        html = build_diff_report(diff_runs(side, side))
        assert "equivalent" in html


class TestDiffCli:
    def _write_manifest(self, path, **kwargs):
        manifest = obs.RunManifest(
            command=kwargs.pop("command", "age"),
            config={"preset": "tiny", "policy": kwargs.pop("policy", "ffs")},
        )
        manifest.started_at = kwargs.pop("started_at", 1_700_000_000.0)
        manifest.finish(kwargs.pop("wall", 30.0),
                        kwargs.pop("metrics", _metrics()))
        with open(path, "w") as fp:
            manifest.dump(fp)
        return path

    def test_diff_of_manifest_files_end_to_end(self, tmp_path, capsys):
        a = self._write_manifest(tmp_path / "a.json")
        b = self._write_manifest(
            tmp_path / "b.json", policy="realloc",
            metrics=_metrics(0.91, lost=220, label="FFS + Realloc"),
        )
        assert main(["diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "run diff: a.json -> b.json" in out
        assert "layout_score[FFS vs FFS + Realloc]" in out

    def test_json_output_is_schema_tagged_and_deterministic(
        self, tmp_path, capsys
    ):
        a = self._write_manifest(tmp_path / "a.json")
        argv = ["diff", str(a), str(a), "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        document = json.loads(first)
        assert document["schema"] == SCHEMA
        assert document["significant"] == 0

    def test_registry_ids_resolve_via_runs_dir(self, tmp_path, capsys):
        from repro.obs.store import RunStore

        store = RunStore(tmp_path / "runs")
        manifest = obs.RunManifest(command="age", config={"preset": "tiny"})
        manifest.started_at = 1_700_000_000.0
        manifest.finish(1.0, _metrics())
        id_a = store.record(manifest)
        manifest.started_at = 1_700_000_001.0
        id_b = store.record(manifest)
        assert main([
            "diff", id_a, id_b, "--runs-dir", str(store.root),
        ]) == 0
        out = capsys.readouterr().out
        assert f"run diff: {id_a} -> {id_b}" in out

    def test_html_report_is_written(self, tmp_path, capsys):
        a = self._write_manifest(tmp_path / "a.json")
        output = tmp_path / "diff.html"
        assert main(["diff", str(a), str(a), "--html", str(output)]) == 0
        capsys.readouterr()
        html = output.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "<script" not in html

    def test_events_unlock_the_timeline_section(self, tmp_path, capsys):
        a = self._write_manifest(tmp_path / "a.json")
        events = tmp_path / "e.jsonl"
        log = obs.EventLog()
        for day, score in enumerate((1.0, 0.5)):
            log.emit("day_sample", label="FFS", day=day,
                     layout_score=score, utilization=0.2)
        with open(events, "w") as fp:
            log.write_jsonl(fp)
        b_events = tmp_path / "eb.jsonl"
        log_b = obs.EventLog()
        for day, score in enumerate((1.0, 0.9)):
            log_b.emit("day_sample", label="FFS", day=day,
                       layout_score=score, utilization=0.2)
        with open(b_events, "w") as fp:
            log_b.write_jsonl(fp)
        assert main([
            "diff", str(a), str(a),
            "--events-a", str(events), "--events-b", str(b_events),
        ]) == 0
        assert "first divergence [FFS]: day 1" in capsys.readouterr().out

    def test_missing_run_exits_two(self, tmp_path, capsys):
        a = self._write_manifest(tmp_path / "a.json")
        assert main([
            "diff", "no-such-run", str(a),
            "--runs-dir", str(tmp_path / "runs"),
        ]) == 2
        assert "diff:" in capsys.readouterr().err

    def test_foreign_schema_file_exits_two(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"schema": "something.else/v1"}')
        a = self._write_manifest(tmp_path / "a.json")
        assert main(["diff", str(bogus), str(a)]) == 2
        assert "diff:" in capsys.readouterr().err

    def test_corrupt_json_file_exits_two(self, tmp_path, capsys):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        a = self._write_manifest(tmp_path / "a.json")
        assert main(["diff", str(broken), str(a)]) == 2
        assert "diff:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--events-a", "--disk-trace-a"])
    @pytest.mark.parametrize("line", ["42", "[1, 2]"])
    def test_non_object_jsonl_line_exits_two(
        self, tmp_path, capsys, flag, line
    ):
        a = self._write_manifest(tmp_path / "a.json")
        rows = tmp_path / "rows.jsonl"
        rows.write_text(line + "\n")
        assert main(["diff", str(a), str(a), flag, str(rows)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.strip() == (
            "diff: line 1: expected a JSON object, got "
            + ("int" if line == "42" else "list")
        )

    def test_negative_thresholds_exit_two(self, tmp_path, capsys):
        a = self._write_manifest(tmp_path / "a.json")
        assert main(["diff", str(a), str(a),
                     "--rel-threshold", "-0.1"]) == 2
        assert main(["diff", str(a), str(a), "--abs-floor", "-1"]) == 2
        capsys.readouterr()

    def test_rel_threshold_override_reclassifies(self, tmp_path, capsys):
        a = self._write_manifest(tmp_path / "a.json",
                                 metrics=_metrics(lost=100))
        b = self._write_manifest(tmp_path / "b.json",
                                 metrics=_metrics(lost=103))
        assert main(["diff", str(a), str(b), "--json"]) == 0
        loose = json.loads(capsys.readouterr().out)
        assert main([
            "diff", str(a), str(b), "--json", "--rel-threshold", "0.01",
        ]) == 0
        tight = json.loads(capsys.readouterr().out)
        assert loose["significant"] == 0
        assert tight["significant"] >= 1
