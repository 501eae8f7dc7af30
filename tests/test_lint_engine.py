"""Engine-level tests: pragmas, file collection, module names, parse errors."""

from pathlib import Path

from repro.lint.engine import collect_files, lint_paths
from repro.lint.findings import Finding
from repro.lint.pragmas import parse_pragmas
from repro.lint.registry import get_rule
from tests.lint_fixtures import write


class TestPragmas:
    def test_line_pragma_suppresses(self, tmp_path):
        path = write(
            tmp_path,
            "repro/mod.py",
            "import time\n"
            "stamp = time.time()  # replint: disable=R001  (manifest metadata)\n",
        )
        result = lint_paths([path], rules=[get_rule("R001")], root=tmp_path)
        assert result.findings == []
        assert result.pragma_suppressed == 1

    def test_pragma_on_other_line_does_not_suppress(self, tmp_path):
        path = write(
            tmp_path,
            "repro/mod.py",
            "import time  # replint: disable=R001  (just the import line)\n"
            "stamp = time.time()\n",
        )
        result = lint_paths([path], rules=[get_rule("R001")], root=tmp_path)
        assert len(result.findings) == 1
        assert result.findings[0].line == 2

    def test_disable_all_on_line(self, tmp_path):
        path = write(
            tmp_path,
            "repro/mod.py",
            "import time\n"
            "stamp = time.time()  # replint: disable=all  (demo)\n",
        )
        result = lint_paths([path], root=tmp_path)
        assert result.findings == []

    def test_file_level_pragma(self, tmp_path):
        path = write(
            tmp_path,
            "repro/mod.py",
            "# replint: disable-file=R001  (wall-clock by design)\n"
            "import time\n"
            "a = time.time()\n"
            "b = time.time()\n",
        )
        result = lint_paths([path], rules=[get_rule("R001")], root=tmp_path)
        assert result.findings == []
        assert result.pragma_suppressed == 2

    def test_pragma_inside_string_is_inert(self, tmp_path):
        path = write(
            tmp_path,
            "repro/mod.py",
            'text = "# replint: disable=R001"\n'
            "import time\n"
            "stamp = time.time()\n",
        )
        result = lint_paths([path], rules=[get_rule("R001")], root=tmp_path)
        assert len(result.findings) == 1

    def test_multiple_ids_one_pragma(self):
        pragmas = parse_pragmas(
            "x = 1  # replint: disable=R001, R103  (both waived)\n"
        )
        finding1 = Finding("f.py", 1, 1, "R001", "m")
        finding103 = Finding("f.py", 1, 1, "R103", "m")
        finding2 = Finding("f.py", 1, 1, "R002", "m")
        assert pragmas.suppresses(finding1)
        assert pragmas.suppresses(finding103)
        assert not pragmas.suppresses(finding2)

    def test_parse_error_not_suppressible(self):
        pragmas = parse_pragmas("# replint: disable-file=all  (nope)\n")
        assert not pragmas.suppresses(Finding("f.py", 1, 1, "E000", "syntax"))


class TestCollection:
    def test_skips_pycache_and_hidden(self, tmp_path):
        write(tmp_path, "pkg/mod.py", "x = 1\n")
        write(tmp_path, "pkg/__pycache__/mod.cpython-312.py", "x = 1\n")
        write(tmp_path, "pkg/.hidden/secret.py", "x = 1\n")
        files = collect_files([tmp_path])
        assert [f.name for f in files] == ["mod.py"]

    def test_explicit_file_and_dedup(self, tmp_path):
        path = write(tmp_path, "pkg/mod.py", "x = 1\n")
        files = collect_files([path, tmp_path])
        assert files.count(path) == 1

    def test_missing_path_raises(self, tmp_path):
        try:
            collect_files([tmp_path / "missing"])
        except FileNotFoundError:
            pass
        else:
            raise AssertionError("expected FileNotFoundError")


class TestModuleNames:
    def test_findings_do_not_depend_on_path_spelling(
        self, tmp_path, monkeypatch
    ):
        # A checkout in a directory called ``repro`` that is not itself
        # a package: only ``src/repro`` is library code, by either path.
        checkout = tmp_path / "repro"
        test_src = "def test_x():\n    assert 1 + 1 == 2\n"
        write(checkout, "tests/test_a.py", test_src)
        write(checkout / "src", "repro/mod.py", "assert True\n")
        absolute = lint_paths([checkout], root=checkout).findings
        monkeypatch.chdir(checkout)
        relative = lint_paths([Path(".")]).findings
        assert absolute == relative
        assert [(f.path, f.rule_id) for f in absolute] == [
            ("src/repro/mod.py", "R003")
        ]


class TestParseErrors:
    def test_syntax_error_is_e000(self, tmp_path):
        path = write(tmp_path, "repro/broken.py", "def f(:\n")
        result = lint_paths([path], root=tmp_path)
        assert [f.rule_id for f in result.findings] == ["E000"]

    def test_e000_survives_pragmas(self, tmp_path):
        path = write(
            tmp_path,
            "repro/broken.py",
            "# replint: disable-file=all  (nice try)\ndef f(:\n",
        )
        result = lint_paths([path], root=tmp_path)
        assert [f.rule_id for f in result.findings] == ["E000"]


class TestResultShape:
    def test_findings_sorted_and_json(self, tmp_path):
        write(
            tmp_path,
            "repro/b.py",
            "import time\nx = time.time()\n",
        )
        write(
            tmp_path,
            "repro/a.py",
            "import random\nimport time\ny = time.time()\n",
        )
        result = lint_paths([tmp_path], root=tmp_path)
        keys = [f.sort_key for f in result.findings]
        assert keys == sorted(keys)
        payload = result.to_dict()
        assert payload["schema"] == "replint.report/v2"
        assert payload["files_checked"] == 3  # a.py, b.py, __init__.py
        assert "baseline_suppressed" not in payload
        assert len(payload["findings"]) == len(result.findings)
