"""Malformed recorded artifacts end in one ``repro-ffs <cmd>:`` line.

Each loader decides once what a valid document is; every reader of it
then takes ``main``'s route for a bad one: exit 2, a single stderr
line, no traceback.  The cases live in :mod:`tests.malformed_cases` so
CI can feed the same fixtures to the installed command.
"""

import pytest

from repro.cli import main
from tests.malformed_cases import (
    BAD_DAY_SAMPLE,
    BAD_HEADER_RUNS_DIR,
    BAD_RUN_ID,
    BAD_RUNS_DIR,
    CASES,
    GOOD_RUN,
    write_fixtures,
)


@pytest.fixture
def fixtures(tmp_path, monkeypatch):
    write_fixtures(tmp_path)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _refused(argv, capsys):
    """Run ``argv``; return its one stderr line minus the prefix."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1, lines
    prefix = f"repro-ffs {argv[0]}: "
    assert lines[0].startswith(prefix), lines[0]
    assert "No such file" not in lines[0], "a fixture is missing"
    return lines[0][len(prefix):]


@pytest.mark.parametrize(
    "argv", [argv for _id, argv in CASES], ids=[case for case, _ in CASES]
)
def test_malformed_input_exits_two_with_one_line(fixtures, capsys, argv):
    _refused(argv, capsys)
    assert not (fixtures / "r.html").exists()


def test_bad_day_sample_gets_one_message_from_report_and_diff(
    fixtures, capsys
):
    from_report = _refused(
        ["report", BAD_DAY_SAMPLE, "--output", "r.html"], capsys,
    )
    from_diff = _refused(["diff", GOOD_RUN, BAD_DAY_SAMPLE], capsys)
    assert from_report == from_diff
    assert "layout_score 'bad'" in from_report


def test_history_skips_a_bad_registry_document_with_a_warning(
    fixtures, capsys
):
    assert main(["history", "--runs-dir", BAD_HEADER_RUNS_DIR]) == 0
    captured = capsys.readouterr()
    assert "no recorded runs" in captured.out
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(
        f"warning: skipping corrupt run file {BAD_RUN_ID}.jsonl: line 1: "
        f"header: bad summary 'nope'"
    )


def test_history_reads_only_the_headers(fixtures, capsys):
    # The registry run's bad metrics row lies past its header: history
    # lists the run, and only loading the whole run refuses it.
    assert main(["history", "--runs-dir", BAD_RUNS_DIR]) == 0
    captured = capsys.readouterr()
    assert "run history (1 recorded)" in captured.out
    assert captured.err == ""
