"""Tests for the ``repro-ffs`` command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import _build_parser, main

#: ``{"argv", "namespace"}`` per representative invocation, handlers by
#: name: what each subcommand parsed to before its flags moved into
#: shared parent parsers.  The namespace is the manifest ``config``, so
#: it must not drift.
NAMESPACES = json.loads(
    (Path(__file__).parent / "cli_namespaces.json").read_text()
)

#: Dests renamed on purpose since the table was recorded:
#: ``(command, old) -> new``, a ``None`` command for every command and a
#: ``None`` new dest for one retired with its flag.  One ``--run`` run
#: file replaced the four per-stream capture flags, and ``report`` and
#: ``diff`` lost their per-stream inputs: the table's telemetry keys
#: were re-recorded (argv and values) under their old names.
RENAMED = {
    ("freespace", "json"): "as_json",
    (None, "metrics"): "run",
    (None, "disk_trace"): "disk_rows",
    (None, "trace"): None,
    (None, "events"): None,
    (None, "_no_telemetry"): None,
    ("stats", "manifest"): "run_file",
    ("report", "manifest"): "run_file",
    ("report", "disk_trace"): None,
    ("report", "compare_events"): None,
    ("diff", "events_a"): None,
    ("diff", "events_b"): None,
    ("diff", "disk_trace_a"): None,
    ("diff", "disk_trace_b"): None,
}


def _renamed(command, key):
    return RENAMED.get((command, key), RENAMED.get((None, key), key))


class TestParsing:
    @pytest.mark.parametrize(
        "case", NAMESPACES, ids=[" ".join(c["argv"]) for c in NAMESPACES]
    )
    def test_parsed_namespace_is_pinned(self, case):
        args = vars(_build_parser().parse_args(case["argv"]))
        got = {k: v.__name__ if callable(v) else v for k, v in args.items()}
        command = case["namespace"]["command"]
        expected = {
            _renamed(command, key): value
            for key, value in case["namespace"].items()
            if _renamed(command, key) is not None
        }
        assert got == expected

    def test_no_command_shows_help(self, capsys):
        assert main([]) == 2
        assert "repro-ffs" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            main(["age", "--preset", "huge"])


class TestCommands:
    def test_age_single_policy(self, capsys):
        assert main(["age", "--preset", "tiny", "--policy", "ffs"]) == 0
        out = capsys.readouterr().out
        assert "final layout score" in out
        assert "ffs" in out

    def test_age_both_policies(self, capsys):
        assert main(["age", "--preset", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "realloc" in out

    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1", "--preset", "tiny"]) == 0
        assert "Benchmark Configuration" in capsys.readouterr().out

    def test_experiment_fig2(self, capsys):
        assert main(["experiment", "fig2", "--preset", "tiny"]) == 0
        assert "Figure 2" in capsys.readouterr().out

    def test_workload_dump(self, tmp_path, capsys):
        out_file = tmp_path / "workload.txt"
        assert main(["workload", str(out_file), "--preset", "tiny"]) == 0
        assert "wrote" in capsys.readouterr().out
        lines = out_file.read_text().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) > 100

    def test_workload_roundtrips(self, tmp_path):
        from repro.aging.workload import Workload

        out_file = tmp_path / "workload.txt"
        main(["workload", str(out_file), "--preset", "tiny"])
        with open(out_file) as fp:
            loaded = Workload.load(fp)
        loaded.validate()

    def test_freespace(self, capsys):
        assert main(["freespace", "--preset", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "free blocks" in out
        assert "clusterable" in out


class TestStudyCommands:
    def test_ablation_trigger(self, capsys):
        assert main(["ablation", "trigger", "--preset", "tiny"]) == 0
        assert "two-chunk" in capsys.readouterr().out

    def test_profiles(self, capsys):
        assert main(["profiles", "--preset", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "news" in out and "database" in out

    def test_ablation_reads_the_suite_agings_from_the_cache(
        self, tmp_path, private_cache, capsys
    ):
        import json

        primed = str(tmp_path / "primed")
        assert main(["experiment", "all", "--preset", "tiny",
                     "--cache-dir", primed]) == 0
        run_file = tmp_path / "run.jsonl"
        assert main(["ablation", "fallback", "--preset", "tiny",
                     "--cache-dir", primed, "--run", str(run_file)]) == 0
        last = run_file.read_text().splitlines()[-1]
        counters = json.loads(last)["metrics"]
        # ffs and realloc are the suite's agings; only ffs-smart replays.
        assert counters["cache.hits"]["value"] == 2
        assert counters["cache.misses"]["value"] == 1
        fresh = tmp_path / "fresh"
        assert main(["ablation", "fallback", "--preset", "tiny",
                     "--no-cache", "--cache-dir", str(fresh)]) == 0
        assert not fresh.exists() or not any(fresh.iterdir())
        capsys.readouterr()

    def test_ablation_unknown_rejected(self):
        import pytest

        with pytest.raises(SystemExit):
            main(["ablation", "everything", "--preset", "tiny"])


class TestWorkloadReplayAndCsv:
    def test_age_from_workload_file(self, tmp_path, capsys):
        wl = tmp_path / "w.txt"
        main(["workload", str(wl), "--preset", "tiny"])
        capsys.readouterr()
        assert main(["age", "--preset", "tiny", "--policy", "ffs",
                     "--workload", str(wl)]) == 0
        assert "final layout score" in capsys.readouterr().out

    def test_experiment_csv_export(self, tmp_path, capsys):
        out_csv = tmp_path / "fig2.csv"
        assert main(["experiment", "fig2", "--preset", "tiny",
                     "--csv", str(out_csv)]) == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "day,ffs,realloc"
        assert len(lines) > 10

    def test_csv_ignored_for_tables(self, tmp_path, capsys):
        out_csv = tmp_path / "t1.csv"
        assert main(["experiment", "table1", "--preset", "tiny",
                     "--csv", str(out_csv)]) == 0
        assert "no CSV series" in capsys.readouterr().out
        assert not out_csv.exists()


class TestLfsCommand:
    def test_experiment_lfs(self, capsys):
        assert main(["experiment", "lfs", "--preset", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "LFS" in out and "write amplification" in out


class TestErrorRouting:
    """Failures route through repro.errors exit codes: no tracebacks,
    one-line messages on stderr, usage errors exit 2."""

    def test_fsck_missing_image_exits_2(self, capsys):
        assert main(["fsck", "/nonexistent/image.json"]) == 2
        err = capsys.readouterr().err
        assert "repro-ffs fsck:" in err
        assert "Traceback" not in err

    def test_stats_missing_manifest_exits_2(self, capsys):
        assert main(["stats", "/nonexistent/manifest.json"]) == 2
        err = capsys.readouterr().err
        assert "repro-ffs stats:" in err
        assert "Traceback" not in err

    def test_age_missing_workload_exits_2(self, capsys):
        assert main(["age", "--preset", "tiny", "--policy", "ffs",
                     "--workload", "/nonexistent/w.txt"]) == 2
        err = capsys.readouterr().err
        assert "repro-ffs age:" in err
        assert "Traceback" not in err

    def test_fsck_repair_missing_image_exits_2(self, capsys):
        assert main(["fsck", "/nonexistent/image.json", "--repair"]) == 2
        assert "repro-ffs fsck:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["stats"], ["fsck"], ["fsck", "--repair"], ["inspect"],
    ])
    def test_non_json_file_exits_2_with_one_line(self, tmp_path, capsys, argv):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("this is not JSON\n")
        assert main([argv[0], str(bogus), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        where = "bogus.json: line 1: " if argv[0] == "stats" else ""
        assert lines[0].startswith(f"repro-ffs {argv[0]}: {where}not a ")
        assert "invalid JSON" in lines[0]

    @pytest.mark.parametrize("command, body, message", [
        ("stats", '{"schema": "other/v9"}', "not a run manifest"),
        ("stats", "[1, 2]", "not a run manifest"),
        ("inspect", '{"format": "tarball"}', "not a repro-ffs image"),
    ])
    def test_wrong_schema_exits_2_with_one_line(
        self, tmp_path, capsys, command, body, message
    ):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(body)
        assert main([command, str(bogus)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip() == err.strip().splitlines()[0]
        assert err.startswith(f"repro-ffs {command}: ")
        assert message in err


class TestFsckCommand:
    @pytest.fixture
    def corrupt_image(self, tmp_path, tiny_params):
        from repro.ffs.filesystem import FileSystem
        from repro.ffs.image import dump_filesystem
        from repro.units import KB

        fs = FileSystem(tiny_params, policy="ffs")
        d = fs.make_directory("d")
        ino = fs.create_file(d, 40 * KB)
        fs.inodes[ino].size += tiny_params.block_size * 4  # oversized
        path = tmp_path / "corrupt.json"
        with open(path, "w") as fp:
            dump_filesystem(fs, fp)
        return path

    def test_fsck_flags_corruption(self, corrupt_image, capsys):
        assert main(["fsck", str(corrupt_image)]) == 1
        assert "CORRUPT" in capsys.readouterr().out

    def test_repair_then_clean(self, corrupt_image, tmp_path, capsys):
        fixed = tmp_path / "fixed.json"
        assert main(["fsck", str(corrupt_image), "--repair",
                     "--save", str(fixed)]) == 0
        out = capsys.readouterr().out
        assert "fsck: repaired" in out
        assert "clamped" in out
        assert main(["fsck", str(fixed)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_repair_json_report(self, corrupt_image, capsys):
        import json

        assert main(["fsck", str(corrupt_image), "--repair", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["truncated_files"] == 1


class TestChaosCommand:
    ARGS = ["chaos", "--preset", "tiny", "--crashes", "1", "--seed", "11"]

    def test_serial_and_parallel_stdout_identical(self, capsys):
        assert main(self.ARGS) == 0
        serial = capsys.readouterr().out
        assert main(self.ARGS + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel
        assert "all fired crashes repaired to fsck-clean: yes" in serial

    def test_json_report(self, tmp_path, capsys):
        import json

        out_file = tmp_path / "chaos.json"
        assert main(self.ARGS + ["--json", "--output", str(out_file)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "repro.chaos/v2"
        assert report["all_repairs_clean"] is True
        assert report["cases"]
        assert json.loads(out_file.read_text()) == report
