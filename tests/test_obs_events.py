"""Event-log tests: the EventLog itself and every emission site.

With an event log live, a replay yields exactly one ``day_sample`` per
simulated day whose layout scores match ``analysis.timeline.Timeline``
sample-for-sample, and a ``--run`` capture (which always carries the
event rows) leaves ``experiment all`` stdout byte-identical.
"""

import io
import json

import pytest

from repro import cache as repro_cache, obs, schemas
from repro.aging.replay import age_file_system
from repro.cache.store import ArtifactCache
from repro.cli import main
from repro.errors import OutOfSpaceError
from repro.ffs.filesystem import FileSystem
from repro.obs import events as obs_events
from repro.obs.runfile import load_run, read_run
from repro.units import KB
from tests.rowlog_cases import RowLogCases


class TestEventLog(RowLogCases):
    def make(self, max_rows=None):
        return obs.EventLog(max_rows)

    def add(self, log, n):
        return log.emit(obs_events.CACHE_HIT, n=n)

    def test_emit_stores_typed_row_with_sequence(self):
        log = obs.EventLog()
        row = log.emit(obs_events.DAY_SAMPLE, day=3, layout_score=0.5)
        assert row == {
            "seq": 1, "type": "day_sample", "day": 3, "layout_score": 0.5,
        }
        assert len(log) == 1
        assert log.rows() == [row]

    def test_unknown_type_is_a_bug_not_a_category(self):
        log = obs.EventLog()
        with pytest.raises(ValueError, match="unknown event type"):
            log.emit("day_smaple")
        assert len(log) == 0

    def test_by_type_filters_in_order(self):
        log = obs.EventLog()
        log.emit(obs_events.CACHE_HIT, n=1)
        log.emit(obs_events.CACHE_MISS, n=2)
        log.emit(obs_events.CACHE_HIT, n=3)
        assert [r["n"] for r in log.by_type(obs_events.CACHE_HIT)] == [1, 3]


class TestReadJsonl:
    """The run-file loader reads event rows line by line."""

    HEADER = json.dumps({"row": "header", "schema": schemas.MANIFEST})
    METRICS = '{"row": "metrics", "metrics": {}}'

    def _read(self, *lines):
        text = "\n".join([self.HEADER, *lines, self.METRICS]) + "\n"
        return read_run(io.StringIO(text))

    def test_blank_lines_are_skipped(self):
        run = self._read(
            '{"row": "event", "seq": 1, "type": "cache_hit"}', "", "  ",
            '{"row": "event", "seq": 2, "type": "cache_miss"}',
        )
        assert run.events == [
            {"seq": 1, "type": "cache_hit"}, {"seq": 2, "type": "cache_miss"},
        ]

    @pytest.mark.parametrize("line", ["42", "[1, 2]", '"row"', "null"])
    def test_non_object_line_is_a_value_error_naming_the_line(self, line):
        with pytest.raises(ValueError, match="line 2: expected a JSON object"):
            self._read(line)

    def test_invalid_json_names_the_line(self):
        with pytest.raises(ValueError, match="line 3: invalid JSON"):
            self._read('{"row": "event", "seq": 1, "type": "cache_hit"}',
                       '{"seq": ')


class TestCountTypes:
    ROWS = [
        {"seq": 1, "type": "cache_hit"}, {"seq": 2, "type": "day_sample"},
        {"seq": 3, "type": "cache_hit"}, {"seq": 4},
        {"seq": 5, "type": "log_truncated", "dropped": 2},
    ]

    def test_counts_every_type_and_untyped_rows_as_question_mark(self):
        assert obs_events.count_types(self.ROWS) == {
            "cache_hit": 2, "day_sample": 1, "?": 1, "log_truncated": 1,
        }

    def test_skipped_types_are_left_out(self):
        skip = (obs_events.DAY_SAMPLE, obs_events.LOG_TRUNCATED)
        assert obs_events.count_types(self.ROWS, skip) == {
            "cache_hit": 2, "?": 1,
        }


class TestDaySamples:
    """day_sample events mirror the Timeline exactly, day for day."""

    @pytest.fixture(scope="class")
    def replay_with_events(self, tiny_params, aging_artifacts):
        log = obs.EventLog()
        with obs.session(events=log):
            result = age_file_system(
                aging_artifacts.reconstructed, params=tiny_params,
                policy="ffs",
            )
        return result, log

    def test_one_sample_per_day_matching_timeline(self, replay_with_events):
        result, log = replay_with_events
        samples = log.by_type(obs_events.DAY_SAMPLE)
        assert len(samples) == len(result.timeline.samples)
        for row, sample in zip(samples, result.timeline.samples):
            assert row["day"] == sample.day
            assert row["layout_score"] == sample.layout_score
            assert row["utilization"] == sample.utilization
            assert row["live_files"] == sample.live_files
            assert row["ops_applied"] == sample.ops_applied
            assert row["label"] == result.timeline.label

    def test_samples_carry_free_space_health(self, replay_with_events):
        _result, log = replay_with_events
        for row in log.by_type(obs_events.DAY_SAMPLE):
            assert row["free_runs"] >= 1
            assert row["largest_free_run"] >= 1
            assert 0.0 <= row["clusterable_fraction"] <= 1.0
            deciles = row["cg_occupancy_deciles"]
            assert len(deciles) == 11
            assert deciles == sorted(deciles)
            assert all(0.0 <= d <= 1.0 for d in deciles)

    def test_no_events_without_a_log(self, tiny_params, aging_artifacts):
        # A metrics/trace-only session must not grow an event log.
        with obs.session():
            assert obs.events_or_none() is None
            age_file_system(
                aging_artifacts.reconstructed, params=tiny_params,
                policy="ffs",
            )


class TestAllocatorEvents:
    def test_realloc_cluster_events_from_aging(
        self, tiny_params, aging_artifacts
    ):
        log = obs.EventLog()
        with obs.session(events=log):
            age_file_system(
                aging_artifacts.reconstructed, params=tiny_params,
                policy="realloc",
            )
        moves = log.by_type(obs_events.REALLOC_CLUSTER)
        assert moves, "the realloc policy relocated nothing during aging"
        for row in moves:
            assert row["policy"] == "realloc"
            assert row["length"] >= 1
            assert row["from_block"] != row["to_block"]
            assert row["distance"] == abs(row["to_block"] - row["from_block"])

    def test_alloc_fallback_under_space_pressure(self, tiny_params):
        log = obs.EventLog()
        with obs.session(events=log):
            fs = FileSystem(params=tiny_params, policy="ffs")
            directory = fs.make_directory("crowded")
            try:
                for _ in range(2000):
                    fs.create_file(directory, size=96 * KB)
            except OutOfSpaceError:
                pass
        fallbacks = log.by_type(obs_events.ALLOC_FALLBACK)
        assert fallbacks, "filling the disk never left the home group"
        for row in fallbacks:
            assert row["groups_tried"] > 1
            assert row["from_cg"] != row["to_cg"]


class TestCacheEvents:
    @pytest.fixture
    def store_and_key(self, tmp_path):
        from repro.experiments.config import aging_config

        store = ArtifactCache(tmp_path / "cache")
        key = repro_cache.replay_key(
            "tiny", aging_config("tiny"), "reconstructed", "ffs"
        )
        return store, key

    def test_miss_hit_and_corrupt_events(self, store_and_key, aged_ffs):
        store, key = store_and_key
        log = obs.EventLog()
        with obs.session(events=log):
            assert store.load_replay(key) is None
            store.save_replay(key, aged_ffs)
            assert store.load_replay(key) is not None
            path = store.path_for(key)
            document = json.loads(path.read_text())
            document["payload"]["fs"] = {"broken": True}
            path.write_text(json.dumps(document))
            assert store.load_replay(key) is None
        misses = log.by_type(obs_events.CACHE_MISS)
        hits = log.by_type(obs_events.CACHE_HIT)
        assert [m["reason"] for m in misses] == ["absent", "corrupt"]
        assert len(hits) == 1
        assert hits[0]["hint"] == key.hint
        assert hits[0]["digest"] == key.digest[:16]


class TestCliByteIdentity:
    """The flag must observe the run, never change it."""

    def test_experiment_all_stdout_identical_with_events(
        self, tmp_path, capsys
    ):
        assert main(["experiment", "all", "--preset", "tiny"]) == 0
        plain = capsys.readouterr().out
        run_file = tmp_path / "run.jsonl"
        assert main([
            "experiment", "all", "--preset", "tiny",
            "--run", str(run_file),
        ]) == 0
        with_events = capsys.readouterr().out
        assert with_events == plain
        rows = load_run(run_file).events
        assert rows, "a --run capture wrote no event rows"
        assert {row["type"] for row in rows} <= obs_events.EVENT_TYPES
        starts = [r for r in rows if r["type"] == obs_events.EXPERIMENT_START]
        ends = [r for r in rows if r["type"] == obs_events.EXPERIMENT_END]
        assert len(starts) == len(ends) == 11  # the full suite
        assert all("wall_s" in r for r in ends)
