"""Workload-profile study: the paper's Section 6 future work, executed.

For each usage-pattern profile (home, news, database, pc) this
experiment builds an aging workload, ages a file system under both
allocation policies, and reports the final layout scores and realloc's
fragmentation improvement — answering the question the paper poses:
which file-system design parameters matter for which workload class?
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List

from repro.aging.generator import AgingConfig
from repro.aging.profiles import PROFILE_BYTES_PER_INODE, PROFILES
from repro.analysis.freespace import free_space_stats
from repro.analysis.report import render_table
from repro.experiments.config import Aging, get_preset
from repro.parallel import age_many


@dataclass(frozen=True)
class ProfileOutcome:
    """Both policies' results for one workload profile."""

    ffs_final: float
    realloc_final: float
    improvement: float
    utilization: float
    live_files: int
    clusterable_free: float


@dataclass(frozen=True)
class ProfilesResult:
    """Outcomes for every profile."""

    outcomes: Dict[str, ProfileOutcome]

    def render(self) -> str:
        """Text table of the study's results."""
        rows = []
        for name in sorted(self.outcomes):
            o = self.outcomes[name]
            rows.append(
                (
                    name,
                    f"{o.ffs_final:.3f}",
                    f"{o.realloc_final:.3f}",
                    f"{o.improvement:.0%}",
                    f"{o.utilization:.0%}",
                    str(o.live_files),
                )
            )
        return render_table(
            [
                "profile",
                "FFS",
                "FFS + Realloc",
                "frag. improvement",
                "utilization",
                "files",
            ],
            rows,
            title=(
                "Workload profiles (Section 6 future work): final "
                "aggregate layout scores"
            ),
        )


def agings(preset: str) -> List[Aging]:
    """Each profile aged under FFS, then realloc, with the inode density
    an administrator would choose for it (``newfs -i``); ``home`` is the
    preset's own workload, so its two agings are the suite's."""
    p = get_preset(preset)
    specs = []
    for name, levels in PROFILES.items():
        params = dataclasses.replace(
            p.params, bytes_per_inode=PROFILE_BYTES_PER_INODE[name]
        )
        config = AgingConfig(
            params=params, days=p.days, seed=p.seed, levels=levels
        )
        specs += [Aging(preset, config, policy=p) for p in ("ffs", "realloc")]
    return specs


@lru_cache(maxsize=None)
def run(preset: str = "small") -> ProfilesResult:
    """Age each profile's workload under both policies."""
    results = age_many(agings(preset))
    outcomes: Dict[str, ProfileOutcome] = {}
    for name in PROFILES:
        ffs, realloc = next(results), next(results)
        outcomes[name] = ProfileOutcome(
            ffs_final=ffs.timeline.final_score(),
            realloc_final=realloc.timeline.final_score(),
            improvement=realloc.timeline.fragmentation_improvement_over(
                ffs.timeline
            ),
            utilization=ffs.fs.utilization(),
            live_files=len(ffs.fs.files()),
            clusterable_free=free_space_stats(ffs.fs).clusterable_fraction,
        )
    return ProfilesResult(outcomes=outcomes)
