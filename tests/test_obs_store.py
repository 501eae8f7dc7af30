"""Run-registry tests: manifest summaries, the write-once store, and
the history rendering behind ``repro-ffs history``."""

import json

from repro import obs
from repro.cli import main
import pytest

from repro import schemas
from repro.errors import RunStoreError
from repro.obs.runfile import Run, load_run
from repro.obs.store import (
    RunStore,
    filter_runs,
    render_history,
    summarize_manifest,
)


def _manifest(started_at=1_700_000_000.0, command="experiment",
              metrics=None, wall=12.5):
    manifest = obs.RunManifest(command=command, config={"preset": "tiny"})
    manifest.started_at = started_at
    manifest.finish(wall, metrics or {})
    return manifest


def _full_metrics():
    return {
        "replay.FFS.final_score": {"type": "gauge", "value": 0.74321},
        "replay.FFS + Realloc.final_score": {
            "type": "gauge", "value": 0.91234,
        },
        "disk.busy_ms": {"type": "counter", "value": 2000.0},
        "disk.bytes_read": {"type": "counter", "value": 3 * 1024 * 1024},
        "disk.bytes_written": {"type": "counter", "value": 1024 * 1024},
        "disk.lost_rotations": {"type": "counter", "value": 17},
        "disk.seek_time_ms": {
            "type": "histogram", "count": 4, "sum": 14.0,
            "min": 1.0, "max": 8.0, "mean": 3.5,
            "buckets": [[2, 2], [8, 2], ["+inf", 0]],
        },
    }


class TestSummarizeManifest:
    def test_full_manifest_distils_every_headline(self):
        summary = summarize_manifest(_manifest(metrics=_full_metrics()))
        assert summary["layout_scores"] == {
            "FFS": 0.7432, "FFS + Realloc": 0.9123,
        }
        # 4 MB over 2 busy seconds.
        assert summary["throughput_mb_s"] == 2.0
        assert summary["lost_rotations"] == 17
        assert summary["seek_p50_ms"] == 2
        assert summary["seek_p99_ms"] == 8.0
        assert summary["wall_seconds"] == 12.5

    def test_missing_metrics_yield_missing_keys(self):
        summary = summarize_manifest(_manifest(metrics={}))
        for absent in ("layout_scores", "throughput_mb_s",
                       "lost_rotations", "seek_p50_ms"):
            assert absent not in summary
        assert summary["wall_seconds"] == 12.5

    def test_zero_busy_time_produces_no_throughput(self):
        metrics = {
            "disk.busy_ms": {"type": "counter", "value": 0.0},
            "disk.bytes_read": {"type": "counter", "value": 100.0},
            "disk.bytes_written": {"type": "counter", "value": 0.0},
        }
        assert "throughput_mb_s" not in summarize_manifest(
            _manifest(metrics=metrics)
        )


class TestRunStore:
    def test_record_writes_one_schema_tagged_document(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        run_id = store.record(_manifest(metrics=_full_metrics())).id
        assert run_id == "1700000000000-experiment"
        path = store.root / f"{run_id}.jsonl"
        header = json.loads(path.read_text().splitlines()[0])
        assert header["row"] == "header"
        assert header["schema"] == schemas.MANIFEST
        assert header["id"] == run_id
        assert header["config"]["preset"] == "tiny"
        assert header["summary"]["layout_scores"]["FFS"] == 0.7432
        run = load_run(path)
        assert run.manifest.command == "experiment"
        assert run.manifest.metrics == _full_metrics()

    def test_record_keeps_the_logs(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        log = obs.EventLog()
        log.emit("cache_hit", key="k")
        run_id = store.record(_manifest(), [obs.Tracer(), log]).id
        run = store.load_run(run_id)
        assert [row["type"] for row in run.events] == ["cache_hit"]
        assert run.spans == [] and run.disk is None

    def test_same_millisecond_collision_gets_a_suffix(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        assert store.record(_manifest()).id == "1700000000000-experiment"
        assert store.record(_manifest()).id == "1700000000000-experiment.2"
        assert store.record(_manifest()).id == "1700000000000-experiment.3"
        assert len(store.runs()) == 3

    def test_runs_ordered_by_id_and_skip_foreign_files(self, tmp_path):
        root = tmp_path / "runs"
        store = RunStore(root)
        store.record(_manifest(started_at=1_700_000_002.0))
        store.record(_manifest(started_at=1_700_000_001.0))
        (root / "notes.json").write_text('{"schema": "something.else/v1"}\n')
        (root / "broken.json").write_text("{not json")
        runs = store.runs()
        assert [r.started_at for r in runs] == [
            1_700_000_001.0, 1_700_000_002.0,
        ]

    def test_missing_directory_is_empty_history(self, tmp_path):
        assert RunStore(tmp_path / "absent").runs() == []

    def test_warn_surfaces_each_skipped_document(self, tmp_path, capsys):
        root = tmp_path / "runs"
        store = RunStore(root)
        store.record(_manifest())
        (root / "broken.json").write_text("{not json")
        (root / "notes.json").write_text('{"schema": "something.else/v1"}\n')
        runs = store.runs(warn=True)
        assert len(runs) == 1
        err = capsys.readouterr().err
        assert "warning: skipping" in err
        assert "broken.json" in err and "notes.json" in err

    def test_default_listing_stays_silent(self, tmp_path, capsys):
        root = tmp_path / "runs"
        store = RunStore(root)
        (root).mkdir()
        (root / "broken.json").write_text("{not json")
        assert store.runs() == []
        assert capsys.readouterr().err == ""


class TestLoadRun:
    def _store(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        store.record(_manifest(started_at=1_700_000_001.0, command="age"))
        store.record(_manifest(started_at=1_700_000_002.0,
                               command="experiment"))
        return store

    def test_exact_id(self, tmp_path):
        store = self._store(tmp_path)
        run = store.load_run("1700000001000-age")
        assert run.manifest.command == "age"

    def test_unique_prefix_resolves(self, tmp_path):
        store = self._store(tmp_path)
        run = store.load_run("1700000002000")
        assert run.manifest.command == "experiment"

    def test_ambiguous_prefix_raises(self, tmp_path):
        store = self._store(tmp_path)
        with pytest.raises(RunStoreError, match="ambiguous"):
            store.load_run("17000000")

    def test_missing_id_raises(self, tmp_path):
        store = self._store(tmp_path)
        with pytest.raises(RunStoreError, match="no recorded run"):
            store.load_run("nope")

    def test_corrupt_document_raises_loudly(self, tmp_path):
        store = self._store(tmp_path)
        (store.root / "bad-run.jsonl").write_text("{not json")
        with pytest.raises(RunStoreError, match="corrupt"):
            store.load_run("bad-run")


class TestFilterRuns:
    def _runs(self):
        out = []
        for i, (command, policy) in enumerate([
            ("age", "ffs"), ("age", "realloc"),
            ("experiment", None), ("age", "ffs"),
        ]):
            config = {"preset": "tiny"}
            if policy is not None:
                config["policy"] = policy
            out.append(Run(
                obs.RunManifest(command=command, config=config,
                                started_at=1_700_000_000.0 + i),
                id=f"r{i}",
            ))
        return out

    def test_unfiltered_is_newest_first(self):
        kept = filter_runs(self._runs())
        assert [r.id for r in kept] == ["r3", "r2", "r1", "r0"]

    def test_command_filter_is_exact(self):
        kept = filter_runs(self._runs(), command="age")
        assert [r.id for r in kept] == ["r3", "r1", "r0"]
        assert filter_runs(self._runs(), command="ag") == []

    def test_policy_filter_matches_config_not_labels(self):
        kept = filter_runs(self._runs(), policy="ffs")
        assert [r.id for r in kept] == ["r3", "r0"]
        # "realloc" must not be swallowed by an "ffs" substring match.
        kept = filter_runs(self._runs(), policy="realloc")
        assert [r.id for r in kept] == ["r1"]

    def test_limit_keeps_the_newest_n(self):
        kept = filter_runs(self._runs(), command="age", limit=2)
        assert [r.id for r in kept] == ["r3", "r1"]

    def test_input_order_is_not_mutated(self):
        runs = self._runs()
        filter_runs(runs, limit=1)
        assert [r.id for r in runs] == ["r0", "r1", "r2", "r3"]


class TestRenderHistory:
    def test_empty_history_explains_how_to_start(self):
        assert "--record" in render_history([])

    def test_table_carries_scores_and_throughput(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        store.record(_manifest(metrics=_full_metrics()))
        text = render_history(store.runs())
        assert "run history (1 recorded)" in text
        assert "1700000000000-experiment" in text
        assert "FFS=0.743" in text
        assert "2.00" in text  # MB/s

    def test_summary_free_document_renders_dashes(self):
        text = render_history([Run(
            obs.RunManifest(command="age", started_at=1.0), id="x-run",
        )])
        assert "x-run" in text
        assert "-" in text


class TestHistoryCli:
    def test_history_lists_recorded_runs(self, tmp_path, capsys):
        store = RunStore(tmp_path / "runs")
        store.record(_manifest(metrics=_full_metrics()))
        assert main(["history", "--runs-dir", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert "run history (1 recorded)" in out

    def test_history_json_dumps_the_documents(self, tmp_path, capsys):
        store = RunStore(tmp_path / "runs")
        store.record(_manifest())
        assert main([
            "history", "--runs-dir", str(store.root), "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["schema"] == schemas.MANIFEST
        assert payload[0]["id"] == "1700000000000-experiment"
        assert "metrics" not in payload[0]

    def test_record_flag_archives_an_age_run(self, tmp_path, capsys):
        runs_dir = tmp_path / "runs"
        assert main([
            "age", "--preset", "tiny", "--record",
            "--runs-dir", str(runs_dir), "--no-cache",
            "--cache-dir", str(tmp_path / "cache"),
        ]) == 0
        err = capsys.readouterr().err
        assert "[obs] recorded run" in err
        runs = RunStore(runs_dir).runs()
        assert len(runs) == 1
        assert runs[0].manifest.command == "age"
        assert runs[0].manifest.config["preset"] == "tiny"
        # Which metrics the summary carries depends on whether this
        # process had already aged the preset (the in-process memo skips
        # the replay, and with it the final-score gauges), so only the
        # always-present field is pinned here; the full summary path is
        # covered by TestSummarizeManifest.
        assert "wall_seconds" in runs[0].headline

    def test_history_filters_and_limit(self, tmp_path, capsys):
        store = RunStore(tmp_path / "runs")
        for i, command in enumerate(["age", "experiment", "age"]):
            store.record(_manifest(
                started_at=1_700_000_000.0 + i, command=command,
            ))
        assert main([
            "history", "--runs-dir", str(store.root),
            "--command", "age", "--limit", "1", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        # Newest matching run only.
        assert [r["id"] for r in payload] == ["1700000002000-age"]

    def test_history_rejects_a_zero_limit(self, tmp_path, capsys):
        assert main([
            "history", "--runs-dir", str(tmp_path), "--limit", "0",
        ]) == 2
        assert "--limit" in capsys.readouterr().err

    def test_history_warns_about_corrupt_entries(self, tmp_path, capsys):
        store = RunStore(tmp_path / "runs")
        store.record(_manifest())
        (store.root / "broken.json").write_text("{truncated")
        assert main(["history", "--runs-dir", str(store.root)]) == 0
        captured = capsys.readouterr()
        assert "run history (1 recorded)" in captured.out
        assert "warning: skipping" in captured.err

    def test_history_drift_over_recorded_runs(self, tmp_path, capsys):
        store = RunStore(tmp_path / "runs")
        for i in range(3):
            metrics = dict(_full_metrics())
            metrics["replay.FFS.final_score"] = {
                "type": "gauge", "value": 0.9 - 0.1 * i,
            }
            store.record(_manifest(
                started_at=1_700_000_000.0 + i, metrics=metrics,
            ))
        assert main([
            "history", "--runs-dir", str(store.root), "--drift", "--json",
        ]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro.drift/v1"
        trend = next(t for t in document["trends"]
                     if t["metric"] == "layout_score[FFS]")
        assert trend["label"] == "regression"
