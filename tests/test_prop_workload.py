"""Property-based tests for workload generation and reconstruction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aging.diff import diff_snapshots, merge_days
from repro.aging.generator import AgingConfig, build_workloads
from repro.aging.snapshot import SourceActivityModel
from repro.aging.workload import (
    APPEND,
    CREATE,
    CREATE_CODE,
    DELETE,
    Workload,
    WorkloadBuilder,
)
from repro.errors import WorkloadError
from repro.ffs.params import scaled_params
from repro.units import MB

PARAMS = scaled_params(16 * MB)


class TestModelProperties:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 8))
    @settings(max_examples=8, deadline=None)
    def test_any_seed_produces_valid_workload(self, seed, days):
        model = SourceActivityModel(PARAMS, days=days, seed=seed)
        workload, snapshots = model.generate()
        workload.validate()
        assert len(snapshots) == days
        # Times stay inside the simulated window.
        for record in workload:
            assert 0.0 <= record.time < days

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=6, deadline=None)
    def test_snapshot_sizes_never_negative(self, seed):
        _, snapshots = SourceActivityModel(PARAMS, days=4, seed=seed).generate()
        for snap in snapshots:
            for record in snap.files.values():
                assert record.size >= 0
                assert record.ino >= 0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=6, deadline=None)
    def test_reconstruction_validates_for_any_seed(self, seed):
        config = AgingConfig(params=PARAMS, days=5, seed=seed)
        artifacts = build_workloads(config)
        artifacts.reconstructed.validate()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=6, deadline=None)
    def test_reconstruction_preserves_live_population(self, seed):
        """The reconstructed workload must end with exactly the files of
        the final snapshot (same count, same total bytes)."""
        config = AgingConfig(params=PARAMS, days=5, seed=seed)
        artifacts = build_workloads(config)
        live = {}
        for r in artifacts.reconstructed:
            if r.op == CREATE:
                live[r.file_id] = r.size
            elif r.op == APPEND:
                live[r.file_id] += r.size
            elif r.op == DELETE:
                live.pop(r.file_id)
        _, snapshots = SourceActivityModel(
            config.params, config.days, config.seed, config.levels
        ).generate()
        final = snapshots[-1]
        assert final.day == config.days - 1
        assert len(live) == len(final.files)
        assert sum(live.values()) == sum(f.size for f in final.files.values())

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=6, deadline=None)
    def test_diff_ops_reference_consistent_inodes(self, seed):
        _, snapshots = SourceActivityModel(PARAMS, days=5, seed=seed).generate()
        per_day = diff_snapshots(snapshots, seed=seed)
        workload = merge_days(per_day)
        # Every delete's src_ino must have been created earlier with the
        # same inode number.
        live_inos = {}
        for record in workload:
            if record.op == CREATE:
                live_inos[record.file_id] = record.src_ino
            elif record.op == DELETE:
                assert live_inos.pop(record.file_id) == record.src_ino


#: Times within a day, weighted toward the instants that tie: midnight,
#: and exactly the next midnight (a row the builder must carry).
_DAY_FRACTIONS = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0]),
    st.floats(0.0, 1.0, allow_nan=False),
)

#: A day's rows before its day number is added to the time: file ids,
#: codes and inodes from small ranges, so that rows tie on
#: (time, file id, code) while differing in size, inode or directory.
_DAY_ROWS = st.lists(
    st.tuples(
        _DAY_FRACTIONS,
        st.integers(0, 3),
        st.integers(0, 2),
        st.integers(1, 5),
        st.integers(0, 3),
        st.sampled_from("abc"),
    ),
    max_size=8,
)


class TestBuilderBatches:
    @given(st.lists(_DAY_ROWS, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_day_batches_build_the_one_batch_columns(self, days):
        batches = [
            [(day + row[0],) + row[1:] for row in rows]
            for day, rows in enumerate(days)
        ]
        builder = WorkloadBuilder()
        for day, rows in enumerate(batches):
            builder.add(rows, day + 1)
        batched = builder.finish()
        whole = Workload.from_rows(row for rows in batches for row in rows)
        for name in ("op", "time", "file_id", "size", "src_ino", "dir_id",
                     "dir_table", "day_slices"):
            assert getattr(batched, name) == getattr(whole, name), name

    def test_row_before_an_earlier_bound_is_refused(self):
        builder = WorkloadBuilder()
        builder.add([(0.5, 1, CREATE_CODE, 1, 0, "a")], 1)
        with pytest.raises(WorkloadError):
            builder.add([(0.75, 2, CREATE_CODE, 1, 0, "a")], 2)
