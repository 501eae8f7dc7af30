"""Unit tests for workload records, ordering, and serialization."""

import io

import pytest

from repro.aging.diff import merge_days
from repro.aging.workload import (
    APPEND,
    APPEND_CODE,
    CREATE,
    CREATE_CODE,
    DELETE,
    DELETE_CODE,
    Workload,
    WorkloadRecord,
    WorkloadRow,
)
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


#: Each bad op three ways: record fields, a pipeline row, a file line.
BAD_OPS = {
    "unknown-op": (
        dict(time=0.0, op="rename", size=10),
        WorkloadRow(0.0, 1, 7, 10, 0, "d"),
        "0.0 rename 1 10 0 d",
    ),
    "negative-create": (
        dict(time=0.0, op=CREATE, size=-1),
        WorkloadRow(0.0, 1, CREATE_CODE, -1, 0, "d"),
        "0.0 create 1 -1 0 d",
    ),
    "negative-append": (
        dict(time=0.0, op=APPEND, size=-5),
        WorkloadRow(0.0, 1, APPEND_CODE, -5, 0, "d"),
        "0.0 append 1 -5 0 d",
    ),
    "zero-byte-append": (
        dict(time=0.0, op=APPEND, size=0),
        WorkloadRow(0.0, 1, APPEND_CODE, 0, 0, "d"),
        "0.0 append 1 0 0 d",
    ),
    "negative-time": (
        dict(time=-0.1, op=CREATE, size=10),
        WorkloadRow(-0.1, 1, CREATE_CODE, 10, 0, "d"),
        "-0.1 create 1 10 0 d",
    ),
}

GOOD_ROW = WorkloadRow(0.5, 2, CREATE_CODE, 10, 0, "d")


class TestRowValidation:
    """The record checks hold on every path into a workload."""

    @pytest.mark.parametrize("case", sorted(BAD_OPS))
    def test_record(self, case):
        fields, _row, _line = BAD_OPS[case]
        with pytest.raises(WorkloadError):
            WorkloadRecord(file_id=1, src_ino=0, directory="d", **fields)

    @pytest.mark.parametrize("case", sorted(BAD_OPS))
    def test_load(self, case):
        _fields, _row, line = BAD_OPS[case]
        with pytest.raises(WorkloadError):
            Workload.load(io.StringIO(f"0.5 create 2 10 0 d\n{line}\n"))

    @pytest.mark.parametrize("case", sorted(BAD_OPS))
    def test_from_rows(self, case):
        _fields, row, _line = BAD_OPS[case]
        with pytest.raises(WorkloadError):
            Workload.from_rows([GOOD_ROW, row])

    @pytest.mark.parametrize("case", sorted(BAD_OPS))
    def test_pipeline_merge(self, case):
        _fields, row, _line = BAD_OPS[case]
        with pytest.raises(WorkloadError):
            merge_days([[GOOD_ROW], [row]])

    def test_negative_size_delete_accepted_everywhere(self):
        # The record check covers creates and appends only.
        rec(0.0, DELETE, 1, size=-3)
        Workload.load(io.StringIO("0.0 delete 1 -3 0 d\n"))
        Workload.from_rows([WorkloadRow(0.0, 1, DELETE_CODE, -3, 0, "d")])

    def test_row_op_name(self):
        assert [WorkloadRow(0.0, 1, c, 1, 0, "d").op for c in (0, 1, 2)] == [
            CREATE, APPEND, DELETE,
        ]


class TestRowOrdering:
    def test_tie_orders_create_append_delete(self):
        rows = [
            WorkloadRow(1.0, 1, DELETE_CODE, 0, 0, "d"),
            WorkloadRow(1.0, 1, APPEND_CODE, 5, 0, "d"),
            WorkloadRow(1.0, 1, CREATE_CODE, 5, 0, "d"),
        ]
        for wl in (Workload.from_rows(rows), merge_days([rows[:1], rows[1:]])):
            assert [r.op for r in wl] == [CREATE, APPEND, DELETE]

    def test_full_tie_keeps_input_order(self):
        # Two appends clamped to the same instant keep their write order.
        rows = [
            WorkloadRow(0.5, 1, CREATE_CODE, 8, 0, "d"),
            WorkloadRow(0.9, 1, APPEND_CODE, 128, 0, "d"),
            WorkloadRow(0.9, 1, APPEND_CODE, 40, 0, "d"),
        ]
        assert list(Workload.from_rows(rows).size) == [8, 128, 40]

    def test_records_and_rows_build_equal_columns(self):
        rows = [
            WorkloadRow(2.25, 3, CREATE_CODE, 7, 9, "b"),
            WorkloadRow(0.5, 1, CREATE_CODE, 10, 4, "a"),
            WorkloadRow(2.5, 1, DELETE_CODE, 0, 4, "a"),
            WorkloadRow(0.75, 1, APPEND_CODE, 3, 4, "a"),
        ]
        from_rows = Workload.from_rows(rows)
        from_records = Workload(
            rec(r.time, r.op, r.file_id, r.size, r.src_ino, r.directory)
            for r in rows
        )
        for name in ("op", "time", "file_id", "size", "src_ino", "dir_id",
                     "dir_table", "day_slices"):
            assert getattr(from_rows, name) == getattr(from_records, name)
        assert from_rows.day_slices == ((0, 2), (2, 2), (2, 4))

