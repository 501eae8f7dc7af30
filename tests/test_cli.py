"""Tests for the ``repro-ffs`` command-line interface."""

import pytest

from repro.cli import main


class TestParsing:
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
        metrics = tmp_path / "m.json"
        assert main(["ablation", "fallback", "--preset", "tiny",
                     "--cache-dir", primed, "--metrics", str(metrics)]) == 0
        counters = json.loads(metrics.read_text())["metrics"]
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
        assert report["schema"] == "repro.chaos/v1"
        assert report["all_repairs_clean"] is True
        assert report["cases"]
        assert json.loads(out_file.read_text()) == report
