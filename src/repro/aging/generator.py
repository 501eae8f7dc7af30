"""End-to-end aging-workload construction.

``build_workloads`` runs the whole Section 3 pipeline:

1. simulate the source file system (:class:`SourceActivityModel`) to get
   the ground-truth workload and its nightly snapshots;
2. reconstruct an approximate workload from the snapshots alone with the
   paper's heuristics (:mod:`repro.aging.diff`);
3. fold synthetic NFS-trace churn into the reconstruction
   (:mod:`repro.aging.nfstrace`).

Replaying (1) gives the "Real" curve of Figure 1; replaying (3) gives
the "Simulated" curve and is the aging workload used by every other
experiment.  Both workloads exist at every scale preset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.aging.diff import diff_snapshots, merge_days
from repro.aging.nfstrace import SyntheticNFSTrace, integrate_short_lived
from repro.aging.snapshot import ActivityLevels, Snapshot, SourceActivityModel
from repro.aging.workload import Workload
from repro.ffs.params import FSParams
from repro.gcpause import gc_paused


@dataclass(frozen=True)
class AgingConfig:
    """Parameters of one aging-workload construction."""

    params: FSParams = field(default_factory=FSParams)
    days: int = 300
    seed: int = 0
    levels: ActivityLevels = field(default_factory=ActivityLevels)
    #: Synthetic NFS trace bank size (the paper had multi-day traces to
    #: sample from; 14 synthetic days gives similar variety).
    trace_days: int = 14
    #: Mean short-lived pairs per trace day, scaled with capacity when
    #: None (keeps the visible/short-lived mix constant across presets).
    trace_pairs_per_day: Optional[float] = None


@dataclass
class AgingArtifacts:
    """Everything Section 3 produces."""

    config: AgingConfig
    ground_truth: Workload
    snapshots: List[Snapshot]
    reconstructed: Workload


def build_workloads(config: AgingConfig) -> AgingArtifacts:
    """Run the full pipeline; deterministic for a given config."""
    model = SourceActivityModel(
        params=config.params,
        days=config.days,
        seed=config.seed,
        levels=config.levels,
    )
    pairs = config.trace_pairs_per_day
    if pairs is None:
        pairs = (
            config.levels.short_pairs_per_mb
            * config.params.actual_size_bytes
            / (1024 * 1024)
        )
    with gc_paused():
        ground_truth, snapshots = model.generate()
        per_day = diff_snapshots(snapshots, seed=config.seed + 1)
        trace = SyntheticNFSTrace(
            seed=config.seed + 2,
            n_days=config.trace_days,
            pairs_per_day=pairs,
        )
        with_churn = integrate_short_lived(
            per_day, trace, seed=config.seed + 3
        )
        reconstructed = merge_days(with_churn)
    return AgingArtifacts(
        config=config,
        ground_truth=ground_truth,
        snapshots=snapshots,
        reconstructed=reconstructed,
    )
