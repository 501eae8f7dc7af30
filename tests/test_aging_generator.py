"""Tests for the end-to-end workload construction pipeline."""

import pytest

from repro.aging.generator import AgingConfig, build_workloads
from repro.aging.workload import APPEND, CREATE, DELETE
from repro.ffs.params import scaled_params
from repro.units import MB


class TestBuildWorkloads:
    def test_artifacts_complete(self, aging_artifacts):
        assert len(aging_artifacts.ground_truth) > 0
        assert len(aging_artifacts.reconstructed) > 0
        assert len(aging_artifacts.snapshots) == aging_artifacts.config.days

    def test_both_workloads_validate(self, aging_artifacts):
        aging_artifacts.ground_truth.validate()
        aging_artifacts.reconstructed.validate()

    def test_reconstruction_has_no_appends(self, aging_artifacts):
        """Nightly snapshots cannot see chunked writes — a deliberate
        fidelity gap between the two workloads (Figure 1)."""
        assert all(r.op != APPEND for r in aging_artifacts.reconstructed)

    def test_ground_truth_has_appends(self, aging_artifacts):
        assert any(r.op == APPEND for r in aging_artifacts.ground_truth)

    def test_live_set_matches_final_snapshot(self, aging_artifacts):
        final = aging_artifacts.snapshots[-1]
        for workload in (
            aging_artifacts.ground_truth,
            aging_artifacts.reconstructed,
        ):
            live = {}
            for r in workload:
                if r.op == CREATE:
                    live[r.file_id] = r.size
                elif r.op == APPEND:
                    live[r.file_id] += r.size
                else:
                    live.pop(r.file_id)
            assert len(live) == len(final.files)
            assert sum(live.values()) == sum(
                f.size for f in final.files.values()
            )

    def test_deterministic_for_seed(self, tiny_params):
        config = AgingConfig(params=tiny_params, days=6, seed=77)
        a = build_workloads(config)
        b = build_workloads(config)
        assert list(a.reconstructed) == list(b.reconstructed)

    def test_reconstruction_includes_short_lived_churn(self, aging_artifacts):
        recon_ids = {r.file_id for r in aging_artifacts.reconstructed}
        assert any(fid >= 1 << 40 for fid in recon_ids)

    def test_ops_scale_with_days(self, tiny_params):
        # Not strictly linear (the initial ramp-up is a fixed cost), but
        # tripling the duration must grow the workload substantially.
        short = build_workloads(AgingConfig(params=tiny_params, days=4, seed=5))
        longer = build_workloads(AgingConfig(params=tiny_params, days=12, seed=5))
        assert len(longer.ground_truth) > 1.5 * len(short.ground_truth)
