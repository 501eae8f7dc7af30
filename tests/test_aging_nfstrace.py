"""Unit tests for the synthetic NFS trace and short-lived integration."""

import pytest

from repro.aging.nfstrace import (
    SyntheticNFSTrace,
    integrate_short_lived,
    sum_in_order,
)
from repro.aging.workload import CREATE_CODE, Workload, WorkloadRow


def base_day(day, n=4, directory="hot"):
    """A reconstructed day with some activity in one directory."""
    return [
        WorkloadRow(
            day + 0.4 + 0.05 * i, day * 1000 + i, CREATE_CODE, 1024, 500 + i,
            directory,
        )
        for i in range(n)
    ]


def test_sum_in_order_does_not_compensate():
    # Python 3.12's built-in ``sum`` gives 1.0 here; the workload's
    # float sums must round the same way on every interpreter.
    assert sum_in_order([1e16, 1.0, -1e16]) == 0.0
    assert sum_in_order(iter([0.1, 0.2, 0.3])) == (0.1 + 0.2) + 0.3
    assert sum_in_order([]) == 0.0


class TestSyntheticTrace:
    def test_days_generated(self):
        trace = SyntheticNFSTrace(seed=1, n_days=5, pairs_per_day=50)
        assert len(trace.days) == 5

    def test_deterministic(self):
        a = SyntheticNFSTrace(seed=1, n_days=3, pairs_per_day=30)
        b = SyntheticNFSTrace(seed=1, n_days=3, pairs_per_day=30)
        assert a.days == b.days

    def test_lifetimes_within_day(self):
        trace = SyntheticNFSTrace(seed=2, n_days=3, pairs_per_day=100)
        for day in trace.days:
            for tf in day:
                assert 0.0 < tf.create_frac < tf.delete_frac < 1.0

    def test_sorted_by_dir_then_time(self):
        trace = SyntheticNFSTrace(seed=3, n_days=1, pairs_per_day=200)
        day = trace.days[0]
        assert day == sorted(day, key=lambda f: (f.trace_dir, f.create_frac))

    def test_zero_days_rejected(self):
        with pytest.raises(ValueError):
            SyntheticNFSTrace(n_days=0)


class TestIntegration:
    def test_short_lived_added_to_each_active_day(self):
        trace = SyntheticNFSTrace(seed=4, n_days=3, pairs_per_day=20)
        per_day = [base_day(0), base_day(1)]
        merged = integrate_short_lived(per_day, trace, seed=9)
        for day_index, day_ops in enumerate(merged):
            extra = [r for r in day_ops if r.file_id >= 1 << 40]
            assert extra, f"day {day_index} got no short-lived churn"
            assert len(extra) % 2 == 0  # create/delete pairs

    def test_pairs_validate_as_workload(self):
        trace = SyntheticNFSTrace(seed=4, n_days=3, pairs_per_day=20)
        merged = integrate_short_lived([base_day(0)], trace, seed=9)
        workload = Workload([r for day in merged for r in day])
        workload.validate()

    def test_short_lived_target_busiest_directory(self):
        trace = SyntheticNFSTrace(seed=4, n_days=2, pairs_per_day=15)
        day = base_day(0, n=6, directory="hot") + base_day(0, n=1, directory="cold")
        merged = integrate_short_lived([day], trace, seed=9)
        extra = [r for r in merged[0] if r.file_id >= 1 << 40]
        hot = sum(1 for r in extra if r.directory == "hot")
        cold = sum(1 for r in extra if r.directory == "cold")
        assert hot >= cold

    def test_short_lived_inherit_target_dir_inode(self):
        trace = SyntheticNFSTrace(seed=4, n_days=2, pairs_per_day=10)
        merged = integrate_short_lived([base_day(0)], trace, seed=9)
        extra = [r for r in merged[0] if r.file_id >= 1 << 40]
        assert all(500 <= r.src_ino < 510 for r in extra)

    def test_times_stay_within_day(self):
        trace = SyntheticNFSTrace(seed=4, n_days=2, pairs_per_day=50)
        merged = integrate_short_lived([base_day(3)], trace, seed=9)
        for record in merged[0]:
            assert 3.0 <= record.time < 4.0

    def test_empty_day_gets_no_churn(self):
        trace = SyntheticNFSTrace(seed=4, n_days=2, pairs_per_day=10)
        merged = integrate_short_lived([[]], trace, seed=9)
        assert merged == [[]]
