"""End-to-end aging-workload construction.

``build_workloads`` runs the whole Section 3 pipeline a day at a time,
holding one day of rows and no nightly snapshot:

1. simulate the source file system (:class:`SourceActivityModel`) to get
   the day's ground-truth operations and the entries that night's
   snapshot changed against the previous one;
2. reconstruct the day's operations from those changes alone with the
   paper's heuristics (:mod:`repro.aging.diff`), in work proportional
   to the changes rather than to the live files;
3. fold synthetic NFS-trace churn into the reconstructed day
   (:mod:`repro.aging.nfstrace`);
4. append both days to their workloads' growing columns.

Replaying (1) gives the "Real" curve of Figure 1; replaying (3) gives
the "Simulated" curve and is the aging workload used by every other
experiment.  Both workloads exist at every scale preset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.aging.diff import SnapshotDiffer
from repro.aging.nfstrace import ShortLivedFolder, SyntheticNFSTrace
from repro.aging.snapshot import ActivityLevels, SourceActivityModel
from repro.aging.workload import Workload, WorkloadBuilder
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
        trace = SyntheticNFSTrace(
            seed=config.seed + 2,
            n_days=config.trace_days,
            pairs_per_day=pairs,
        )
        differ = SnapshotDiffer(seed=config.seed + 1)
        folder = ShortLivedFolder(trace, seed=config.seed + 3)
        truth, recon = WorkloadBuilder(), WorkloadBuilder()
        for day, rows, changes in model.run():
            truth.add(rows, day + 1)
            recon.add(folder.fold(differ.next_day(day, changes)), day + 1)
        ground_truth, reconstructed = truth.finish(), recon.finish()
        ground_truth.validate()
        reconstructed.validate()
    return AgingArtifacts(
        config=config,
        ground_truth=ground_truth,
        reconstructed=reconstructed,
    )
