"""Unit tests for workload records, ordering, and serialization."""

import io

import pytest

from repro.aging.workload import APPEND, CREATE, DELETE, Workload, WorkloadRecord
from repro.errors import WorkloadError


def rec(time, op, fid, size=0, ino=0, d="dir"):
    return WorkloadRecord(
        time=time, op=op, file_id=fid, size=size, src_ino=ino, directory=d
    )


class TestRecordValidation:
    def test_unknown_op(self):
        with pytest.raises(WorkloadError):
            rec(0.0, "rename", 1)

    def test_negative_size_create(self):
        with pytest.raises(WorkloadError):
            rec(0.0, CREATE, 1, size=-1)

    def test_zero_byte_append_rejected(self):
        with pytest.raises(WorkloadError):
            rec(0.0, APPEND, 1, size=0)

    def test_negative_time(self):
        with pytest.raises(WorkloadError):
            rec(-0.1, CREATE, 1)

    def test_valid_delete(self):
        record = rec(1.5, DELETE, 3)
        assert record.size == 0


class TestOrdering:
    def test_sorted_by_time(self):
        wl = Workload([rec(2.0, CREATE, 2, 10), rec(1.0, CREATE, 1, 10)])
        assert [r.file_id for r in wl] == [1, 2]

    def test_create_before_append_before_delete_at_same_instant(self):
        wl = Workload(
            [
                rec(1.0, DELETE, 1),
                rec(1.0, APPEND, 1, 5),
                rec(1.0, CREATE, 1, 5),
            ]
        )
        assert [r.op for r in wl] == [CREATE, APPEND, DELETE]
        wl.validate()


class TestValidate:
    def test_good_sequence(self):
        wl = Workload(
            [
                rec(0.1, CREATE, 1, 10),
                rec(0.2, APPEND, 1, 10),
                rec(0.3, DELETE, 1),
            ]
        )
        wl.validate()

    def test_delete_without_create(self):
        wl = Workload([rec(0.1, DELETE, 1)])
        with pytest.raises(WorkloadError):
            wl.validate()

    def test_append_after_delete(self):
        wl = Workload(
            [rec(0.1, CREATE, 1, 10), rec(0.2, DELETE, 1), rec(0.3, APPEND, 1, 5)]
        )
        with pytest.raises(WorkloadError):
            wl.validate()

    def test_double_create_while_live(self):
        wl = Workload([rec(0.1, CREATE, 1, 10), rec(0.2, CREATE, 1, 10)])
        with pytest.raises(WorkloadError):
            wl.validate()

    def test_reuse_after_delete_allowed(self):
        wl = Workload(
            [
                rec(0.1, CREATE, 1, 10),
                rec(0.2, DELETE, 1),
                rec(0.3, CREATE, 1, 10),
            ]
        )
        wl.validate()


class TestStats:
    def test_bytes_written_counts_creates_and_appends(self):
        wl = Workload(
            [rec(0.1, CREATE, 1, 100), rec(0.2, APPEND, 1, 50), rec(0.3, DELETE, 1)]
        )
        assert wl.bytes_written() == 150

    def test_days(self):
        wl = Workload([rec(0.5, CREATE, 1, 1), rec(4.2, DELETE, 1)])
        assert wl.days() == 5

    def test_empty_workload(self):
        wl = Workload()
        assert len(wl) == 0
        assert wl.days() == 0
        wl.validate()


class TestSerialization:
    def test_roundtrip(self):
        original = Workload(
            [
                rec(0.125, CREATE, 1, 4096, ino=77, d="home"),
                rec(0.5, APPEND, 1, 1024, ino=77, d="home"),
                rec(2.75, DELETE, 1, ino=77, d="home"),
            ]
        )
        buffer = io.StringIO()
        original.dump(buffer)
        buffer.seek(0)
        loaded = Workload.load(buffer)
        assert list(loaded) == list(original)

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\n0.100000 create 1 10 5 d\n"
        loaded = Workload.load(io.StringIO(text))
        assert len(loaded) == 1

    def test_malformed_line_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadRecord.from_line("0.1 create 1")
