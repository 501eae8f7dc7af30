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
from tests.lint_fixtures import write

REPO_ROOT = Path(__file__).resolve().parent.parent


CLEAN = "x = 1\n"
DIRTY = "import time\nstamp = time.time()\n"


class TestExitCodes:
    def test_clean_tree_exits_0(self, tmp_path, capsys):
        write(tmp_path, "repro/ok.py", CLEAN)
        assert main(["lint", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_findings_exit_1(self, tmp_path, capsys):
        path = write(tmp_path, "repro/bad.py", DIRTY)
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "R001" in out
        # file:line:col RULE-ID message
        assert f"{path}:2:9: R001" in out or "bad.py:2:9: R001" in out

    def test_missing_path_exits_2(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "missing")]) == 2

    # R004 and R005 are retired ids: unknown now, and never reused.
    def test_unknown_rule_exits_2(self, tmp_path, capsys):
        write(tmp_path, "repro/ok.py", CLEAN)
        for rule_id in ("R999", "R004", "R005"):
            assert main(["lint", "--select", rule_id, str(tmp_path)]) == 2

    def test_unknown_explain_exits_2(self, capsys):
        for rule_id in ("R999", "R004", "R005"):
            assert main(["lint", "--explain", rule_id]) == 2


class TestOutputModes:
    def test_json_report(self, tmp_path, capsys):
        write(tmp_path, "repro/bad.py", DIRTY)
        assert main(["lint", "--json", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == schemas.LINT_REPORT
        assert payload["findings"][0]["rule"] == "R001"
        assert payload["findings"][0]["line"] == 2

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines()]
        assert listed == ["R001", "R002", "R003",
                          "R101", "R102", "R103", "R104"]

    def test_explain(self, capsys):
        assert main(["lint", "--explain", "R002"]) == 0
        out = capsys.readouterr().out
        assert "telemetry" in out and "byte-identical" in out

    def test_select_subset(self, tmp_path, capsys):
        # Snippet violates R001 only; selecting R003 keeps it clean.
        write(tmp_path, "repro/bad.py", DIRTY)
        assert main(["lint", "--select", "R003", str(tmp_path)]) == 0
        capsys.readouterr()
        # A repeated id runs its rule once: one finding, not two.
        assert main(["lint", "--select", "R001,R001", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert out.count(": R001 ") == 1
        assert "1 finding(s)" in out


class TestShippedTree:
    def test_src_repro_lints_clean(self, capsys, monkeypatch):
        """The gate the CI job runs: the real tree has zero findings.

        There is no grandfather file, so this is a strict pass — every
        waiver in the tree is an inline, reasoned pragma.
        """
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint", "src"]) == 0
