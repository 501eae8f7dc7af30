"""Tests for repro.faults: plans, the crash injector and chaos reports.

The contract under test is determinism end to end: a fault plan is a
pure value, two replays under equal plans produce byte-identical damage,
and a replay under a *disabled* plan is byte-identical to one with no
injector at all — the acceptance bar that lets the chaos harness share
cached artifacts with clean runs.
"""

import json

import pytest

from repro import obs
from repro.aging.replay import age_file_system
from repro.errors import FaultInjectionError, InvalidRequestError
from repro.faults.chaos import run_chaos
from repro.faults.injector import FaultInjector
from repro.faults.plan import CrashSpec, FaultPlan, sample_plans
from repro.ffs.check import check_filesystem
from repro.ffs.image import filesystem_to_document


def dump(fs) -> str:
    return json.dumps(filesystem_to_document(fs), sort_keys=True)


#: A crash point known to fire inside the 25-day conftest workload.
FIRING_PLAN = FaultPlan(seed=91, crash=CrashSpec(day=3, after_block_writes=50))


class TestPlans:
    def test_sampling_is_deterministic(self):
        a = sample_plans(7, days=25, count=4)
        b = sample_plans(7, days=25, count=4)
        assert [p.to_payload() for p in a] == [p.to_payload() for p in b]

    def test_different_master_seeds_differ(self):
        a = sample_plans(7, days=25, count=4)
        b = sample_plans(8, days=25, count=4)
        assert [p.to_payload() for p in a] != [p.to_payload() for p in b]

    def test_each_plan_gets_its_own_seed(self):
        plans = sample_plans(7, days=25, count=4)
        assert len({p.seed for p in plans}) == 4

    def test_crash_days_respect_the_window(self):
        for plan in sample_plans(3, days=10, count=20):
            assert plan.crash is not None
            assert 1 <= plan.crash.day <= 9

    def test_inert_keeps_the_crash_point_but_no_damage(self):
        plan = FIRING_PLAN
        twin = plan.inert()
        assert twin.crash == plan.crash
        assert twin.drop_prob == 0.0 and twin.tear_prob == 0.0

    def test_fates_must_be_a_probability_split(self):
        with pytest.raises(InvalidRequestError):
            FaultPlan(seed=1, drop_prob=0.7, tear_prob=0.5)

    def test_negative_crash_day_rejected(self):
        with pytest.raises(InvalidRequestError):
            CrashSpec(day=-1, after_block_writes=5)

    def test_sampling_needs_an_aging_window(self):
        with pytest.raises(InvalidRequestError):
            sample_plans(7, days=1, count=2)


class TestCrashInjection:
    def test_crash_fires_and_summarizes(self, tiny_params, aging_artifacts):
        result = age_file_system(
            aging_artifacts.reconstructed,
            params=tiny_params,
            policy="ffs",
            faults=FaultInjector(FIRING_PLAN),
        )
        assert result.crashed
        assert result.crash is not None
        assert result.crash.day >= FIRING_PLAN.crash.day
        fates = result.crash.applied + result.crash.dropped + result.crash.torn
        assert fates == result.crash.buffered_ops

    def test_damage_is_deterministic(self, tiny_params, aging_artifacts):
        docs = []
        for _ in range(2):
            result = age_file_system(
                aging_artifacts.reconstructed,
                params=tiny_params,
                policy="ffs",
                faults=FaultInjector(FIRING_PLAN),
            )
            docs.append(dump(result.fs))
        assert docs[0] == docs[1]

    def test_disabled_faults_are_byte_identical_to_none(
        self, tiny_params, aging_artifacts
    ):
        """An injector whose plan never crashes and never damages must
        leave the replay indistinguishable from running without one."""
        inert = FaultPlan(seed=5, crash=None, drop_prob=0.0, tear_prob=0.0)
        with_hooks = age_file_system(
            aging_artifacts.reconstructed,
            params=tiny_params,
            policy="ffs",
            faults=FaultInjector(inert),
        )
        without = age_file_system(
            aging_artifacts.reconstructed, params=tiny_params, policy="ffs"
        )
        assert not with_hooks.crashed
        assert with_hooks.ops_applied == without.ops_applied
        assert dump(with_hooks.fs) == dump(without.fs)

    def test_inert_twin_halts_at_the_same_op_with_zero_damage(
        self, tiny_params, aging_artifacts
    ):
        crashed = age_file_system(
            aging_artifacts.reconstructed,
            params=tiny_params,
            policy="ffs",
            faults=FaultInjector(FIRING_PLAN),
        )
        baseline = age_file_system(
            aging_artifacts.reconstructed,
            params=tiny_params,
            policy="ffs",
            faults=FaultInjector(FIRING_PLAN.inert()),
        )
        assert crashed.crashed and baseline.crashed
        assert baseline.ops_applied == crashed.ops_applied
        assert baseline.crash.dropped == 0 and baseline.crash.torn == 0
        check_filesystem(baseline.fs)  # clean halt leaves zero damage

    def test_other_injected_failures_are_not_crashes(
        self, tiny_params, aging_artifacts
    ):
        """Only a crash point halts the replay with a partial result;
        any other injected failure leaves it."""

        class Failing(FaultInjector):
            def before_op(self, fs, kind, ino):
                raise FaultInjectionError("not a crash point")

        inert = FaultPlan(seed=5, crash=None, drop_prob=0.0, tear_prob=0.0)
        with pytest.raises(FaultInjectionError, match="not a crash point"):
            age_file_system(
                aging_artifacts.reconstructed,
                params=tiny_params,
                policy="ffs",
                faults=Failing(inert),
            )

    def test_crash_emits_fault_injected_events(
        self, tiny_params, aging_artifacts
    ):
        log = obs.EventLog()
        with obs.session(events=log):
            result = age_file_system(
                aging_artifacts.reconstructed,
                params=tiny_params,
                policy="ffs",
                faults=FaultInjector(FIRING_PLAN),
            )
        assert result.crashed
        kinds = [
            row["kind"]
            for row in log.rows()
            if row["type"] == "fault_injected"
        ]
        assert kinds  # at least the crash itself is recorded
        assert set(kinds) <= {"crash", "dropped_write", "torn_write"}


def test_chaos_report_plans_carry_exactly_the_plan_fields():
    report = run_chaos("tiny", crashes=1, seed=11).to_dict()
    assert report["cases"]
    for case in report["cases"]:
        assert set(case["plan"]) == {
            "seed", "crash", "drop_prob", "tear_prob", "flush_interval_ops",
        }
