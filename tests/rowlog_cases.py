"""The bounded-row-log cases, written once for every RowLog subclass.

``EventLog`` and ``DiskTrace`` share their bound, ``seq`` numbering,
adoption, truncation marker and reader through ``RowLog``.  A test
class for either log inherits :class:`RowLogCases` and supplies
``make(max_rows)`` and ``add(log, n)`` (append one distinguishable
row), so each shared rule is tested once and run over both logs.
"""

import io

import pytest

from repro.obs import events as obs_events


class RowLogCases:
    """Mix-in: the rules every ``RowLog`` subclass must keep."""

    def make(self, max_rows=None):
        raise NotImplementedError

    def add(self, log, n):
        raise NotImplementedError

    def _filled(self, count, max_rows=None):
        log = self.make(max_rows)
        for n in range(count):
            self.add(log, n)
        return log

    def _jsonl(self, log):
        buffer = io.StringIO()
        count = log.write_jsonl(buffer)
        buffer.seek(0)
        return count, obs_events.read_jsonl(buffer)

    def test_bound_drops_and_counts(self):
        log = self.make(3)
        stored = [self.add(log, n) for n in range(5)]
        assert len(log) == 3
        assert log.dropped == 2
        assert stored[3] is None and stored[4] is None
        assert [row["seq"] for row in log.rows()] == [1, 2, 3]

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError, match="max_rows"):
            self.make(0)

    def test_adopt_rows_renumbers_and_nothing_else(self):
        parent, worker = self._filled(1), self._filled(2)
        assert parent.adopt(worker.rows()) == 2
        adopted = parent.rows()[1:]
        assert [row["seq"] for row in adopted] == [2, 3]
        for mine, theirs in zip(adopted, worker.rows()):
            assert {k: v for k, v in mine.items() if k != "seq"} == \
                   {k: v for k, v in theirs.items() if k != "seq"}

    def test_adopt_rows_renumbers_and_stamps_origin(self):
        parent, worker = self._filled(1), self._filled(2)
        parent.adopt(worker.rows(), origin="w0")
        rows = parent.rows()
        assert [row["seq"] for row in rows] == [1, 2, 3]
        assert "origin" not in rows[0]
        assert all(row["origin"] == "w0" for row in rows[1:])
        # The worker's own rows are untouched (adopt copies).
        assert "origin" not in worker.rows()[0]

    def test_adopt_rows_respects_the_bound(self):
        parent = self._filled(1, max_rows=2)
        assert parent.adopt(self._filled(3).rows()) == 1
        assert parent.dropped == 2

    def test_adopt_dropped_accumulates(self):
        # A worker's drops came after its stored rows: they take the
        # next sequence numbers and join this log's drop count.
        log = self._filled(1)
        log.adopt([], dropped=3)
        log.adopt(self._filled(1).rows(), dropped=2)
        assert log.dropped == 5
        assert [row["seq"] for row in log.rows()] == [1, 5]
        with pytest.raises(ValueError, match="negative"):
            log.adopt([], dropped=-1)
        assert log.dropped == 5

    def test_jsonl_round_trip(self):
        log = self._filled(2)
        count, rows = self._jsonl(log)
        assert count == 2
        assert rows == log.rows()

    def test_jsonl_truncation_marker(self):
        log = self._filled(5, max_rows=2)
        count, rows = self._jsonl(log)
        assert count == 2  # marker not counted
        assert rows[-1] == {
            "seq": 6, "type": obs_events.LOG_TRUNCATED, "dropped": 3,
        }
        assert obs_events.split_truncation(rows) == (log.rows(), 3)

    def test_untruncated_jsonl_has_no_marker(self):
        _count, rows = self._jsonl(self._filled(2))
        assert obs_events.split_truncation(rows) == (rows, 0)
