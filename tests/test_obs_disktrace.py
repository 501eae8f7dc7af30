"""Disk-trace tests: the bounded per-request log, the DiskModel hook,
and the histogram helpers the report builds from trace rows."""

import pytest

from repro import obs
from repro.disk.model import DiskModel, IOKind
from repro.obs.disktrace import SCHEMA, DiskTrace
from repro.obs.events import LOG_TRUNCATED
from repro.obs.heatmap import (
    inter_request_histogram,
    seek_distance_histogram,
    trace_summary,
)
from repro.units import KB
from tests.rowlog_cases import RowLogCases


def _row(trace, seq_kind="read", cyl=0, seek_cyls=0, seek_ms=0.0):
    return trace.record(
        kind=seq_kind, byte=0, nbytes=8 * KB, cyl=cyl,
        seek_cyls=seek_cyls, seek_ms=seek_ms, rot_ms=1.0,
        transfer_ms=0.5, service_ms=seek_ms + 1.5,
        lost_rot=False, buf_hit=False,
    )


class TestDiskTrace(RowLogCases):
    def make(self, max_rows=None):
        return DiskTrace(max_rows)

    def add(self, log, n):
        return _row(log, cyl=n, seek_cyls=n, seek_ms=float(n))

    def test_schema_constant(self):
        assert SCHEMA == "repro.obs.disktrace/v2"

    def test_rows_are_sequenced_and_ms_rounded(self):
        trace = DiskTrace()
        row = trace.record(
            kind="write", byte=4096, nbytes=8 * KB, cyl=7, seek_cyls=3,
            seek_ms=1.23456789, rot_ms=0.1, transfer_ms=0.2,
            service_ms=1.53456789, lost_rot=True, buf_hit=False,
        )
        assert row["seq"] == 1
        assert row["seek_ms"] == 1.2346
        assert row["lost_rot"] is True
        assert _row(trace)["seq"] == 2
        assert len(trace) == 2

    def test_summary_counts_kinds_and_flags(self):
        trace = DiskTrace()
        _row(trace)
        trace.record(kind="write", byte=0, nbytes=1, cyl=0, seek_cyls=0,
                     seek_ms=0.0, rot_ms=0.0, transfer_ms=0.1,
                     service_ms=0.1, lost_rot=True, buf_hit=False)
        trace.record(kind="read", byte=0, nbytes=1, cyl=0, seek_cyls=0,
                     seek_ms=0.0, rot_ms=0.0, transfer_ms=0.1,
                     service_ms=0.1, lost_rot=False, buf_hit=True)
        assert trace_summary(trace.rows()) == {
            "requests": 3, "reads": 2, "writes": 1,
            "lost_rotations": 1, "buffer_hits": 1, "service_ms": 1.7,
            "dropped": 0,
        }


class TestDiskModelHook:
    def test_disabled_path_records_nothing(self):
        model = DiskModel()
        model.access(IOKind.READ, 0, 8 * KB)
        assert model._trace is None

    def test_every_access_becomes_one_row(self):
        trace = DiskTrace()
        with obs.session(disktrace=trace):
            model = DiskModel()
            e1 = model.access(IOKind.READ, 0, 8 * KB)
            e2 = model.access(IOKind.WRITE, 100 * KB, 8 * KB)
        rows = trace.rows()
        assert [r["kind"] for r in rows] == ["read", "write"]
        assert rows[0]["service_ms"] == pytest.approx(e1, abs=1e-4)
        assert rows[1]["service_ms"] == pytest.approx(e2, abs=1e-4)
        for row in rows:
            # The mechanical split sums back to the service time.
            assert row["seek_ms"] + row["rot_ms"] + row["transfer_ms"] \
                == pytest.approx(row["service_ms"], abs=1e-3)

    def test_trace_agrees_with_stats(self):
        trace = DiskTrace()
        with obs.session(disktrace=trace):
            model = DiskModel()
            # A sequential re-read hits the track buffer.
            model.access(IOKind.READ, 0, 8 * KB)
            model.access(IOKind.READ, 8 * KB, 8 * KB)
            model.access(IOKind.WRITE, 200 * KB, 8 * KB)
            summary = trace_summary(trace.rows())
            assert summary["reads"] == model.stats.reads
            assert summary["writes"] == model.stats.writes
            assert summary["buffer_hits"] == model.stats.buffer_hits
            assert summary["lost_rotations"] == model.stats.lost_rotations

    def test_timing_identical_with_and_without_trace(self):
        plain = DiskModel()
        baseline = [
            plain.access(IOKind.READ, i * 64 * KB, 8 * KB)
            for i in range(8)
        ]
        with obs.session(disktrace=DiskTrace()):
            traced = DiskModel()
            timed = [
                traced.access(IOKind.READ, i * 64 * KB, 8 * KB)
                for i in range(8)
            ]
        assert timed == baseline


class TestTraceHistograms:
    def _rows(self):
        rows = []
        trace = DiskTrace()
        for cyl, seek_ms in ((0, 0.0), (40, 2.0), (41, 0.5), (41, 0.0)):
            prev = rows[-1]["cyl"] if rows else 0
            rows.append(trace.record(
                kind="read", byte=0, nbytes=8 * KB, cyl=cyl,
                seek_cyls=abs(cyl - prev), seek_ms=seek_ms, rot_ms=0.0,
                transfer_ms=0.1, service_ms=seek_ms + 0.1,
                lost_rot=False, buf_hit=False,
            ))
        return rows

    def test_seek_distance_histogram_counts_real_seeks(self):
        hist = seek_distance_histogram(self._rows())
        # Only the two requests with seek_ms > 0 count.
        assert hist["count"] == 2
        assert hist["min"] == 1 and hist["max"] == 40

    def test_inter_request_histogram_includes_zero_moves(self):
        hist = inter_request_histogram(self._rows())
        assert hist["count"] == 3  # n-1 transitions
        assert hist["min"] == 0

    def test_empty_trace_yields_no_histograms(self):
        assert seek_distance_histogram([]) is None
        assert inter_request_histogram([]) is None
        assert inter_request_histogram(self._rows()[:1]) is None

    def test_trace_summary_handles_truncation_marker(self):
        rows = self._rows() + [
            {"seq": 5, "type": LOG_TRUNCATED, "dropped": 7},
        ]
        summary = trace_summary(rows)
        assert summary["requests"] == 4
        assert summary["dropped"] == 7
