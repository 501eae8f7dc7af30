"""CLI integration tests for `repro-ffs lint`.

Exit-code contract (the CLI's own 0/1/2): 0 clean, 1 findings,
2 usage error.  Plus the meta-test that matters most: the shipped tree
itself lints clean, so the CI gate starts green and stays strict.
"""

import json
from pathlib import Path

import pytest

from repro import schemas
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent


def write(tmp_path, rel, source):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


CLEAN = "x = 1\n"
DIRTY = "import time\nstamp = time.time()\n"


class TestExitCodes:
    def test_clean_tree_exits_0(self, tmp_path, capsys):
        write(tmp_path, "repro/ok.py", CLEAN)
        assert main(["lint", "--no-baseline", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_findings_exit_1(self, tmp_path, capsys):
        path = write(tmp_path, "repro/bad.py", DIRTY)
        assert main(["lint", "--no-baseline", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "R001" in out
        # file:line:col RULE-ID message
        assert f"{path}:2:9: R001" in out or "bad.py:2:9: R001" in out

    def test_missing_path_exits_2(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "missing")]) == 2

    def test_unknown_rule_exits_2(self, tmp_path, capsys):
        write(tmp_path, "repro/ok.py", CLEAN)
        assert main(["lint", "--select", "R999", str(tmp_path)]) == 2

    def test_unknown_explain_exits_2(self, capsys):
        assert main(["lint", "--explain", "R999"]) == 2


class TestOutputModes:
    def test_json_report(self, tmp_path, capsys):
        write(tmp_path, "repro/bad.py", DIRTY)
        assert main(["lint", "--no-baseline", "--json", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == schemas.LINT_REPORT
        assert payload["findings"][0]["rule"] == "R001"
        assert payload["findings"][0]["line"] == 2

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("R001", "R002", "R003", "R004", "R005"):
            assert rule_id in out

    def test_explain(self, capsys):
        assert main(["lint", "--explain", "R002"]) == 0
        out = capsys.readouterr().out
        assert "telemetry" in out and "byte-identical" in out

    def test_select_subset(self, tmp_path, capsys):
        # Snippet violates R001 only; selecting R005 keeps it clean.
        write(tmp_path, "repro/bad.py", DIRTY)
        assert main(["lint", "--no-baseline", "--select", "R005",
                     str(tmp_path)]) == 0


class TestBaselineFlow:
    def test_update_then_clean(self, tmp_path, capsys):
        write(tmp_path, "repro/bad.py", DIRTY)
        baseline = tmp_path / "baseline.json"
        assert main(["lint", "--update-baseline", "--baseline",
                     str(baseline), str(tmp_path)]) == 0
        assert baseline.exists()
        capsys.readouterr()
        assert main(["lint", "--baseline", str(baseline), str(tmp_path)]) == 0
        assert "1 baselined" in capsys.readouterr().out

    def test_no_baseline_overrides(self, tmp_path, capsys):
        write(tmp_path, "repro/bad.py", DIRTY)
        baseline = tmp_path / "baseline.json"
        assert main(["lint", "--update-baseline", "--baseline",
                     str(baseline), str(tmp_path)]) == 0
        assert main(["lint", "--no-baseline", "--baseline",
                     str(baseline), str(tmp_path)]) == 1


class TestShippedTree:
    def test_src_repro_lints_clean(self, capsys, monkeypatch):
        """The gate the CI job runs: the real tree has zero findings.

        The committed baseline is empty, so this is a strict pass —
        every waiver in the tree is an inline, reasoned pragma.
        """
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint", "src"]) == 0

    def test_committed_baseline_is_empty(self):
        baseline = REPO_ROOT / ".replint-baseline.json"
        payload = json.loads(baseline.read_text())
        assert payload["schema"] == schemas.LINT_BASELINE
        assert payload["findings"] == []
