"""Scale presets and cached experiment artifacts.

Replaying ten months of activity twice per experiment is the expensive
part of the reproduction, so experiments share artifacts through the
cached accessors here:

* :func:`artifacts` — the aging workloads (ground truth, snapshots,
  reconstruction) for a preset;
* :func:`aged` — the reconstructed workload replayed under a policy;
* :func:`aged_real` — the ground truth replayed (the "Real" curve);
* :func:`aged_fs_copy` — a deep copy of an aged file system for
  benchmarks that mutate it.

Three presets trade fidelity for runtime.  All keep the paper's block
and fragment sizes, ``maxcontig``, and utilization trajectory; only the
partition size and simulated duration shrink.  EXPERIMENTS.md records
which preset produced every reported number.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Tuple

from repro import cache
from repro.aging.generator import AgingConfig, AgingArtifacts, build_workloads
from repro.aging.replay import ReplayResult, age_file_system
from repro.ffs.filesystem import FileSystem
from repro.ffs.params import FSParams, scaled_params
from repro.units import KB, MB


@dataclass(frozen=True)
class Preset:
    """One scale point for the whole experiment suite."""

    name: str
    params: FSParams
    days: int
    seed: int
    #: Total data volume of the sequential I/O benchmark (paper: 32 MB).
    bench_total_bytes: int
    #: Repetitions per throughput measurement (paper: 10).
    bench_repetitions: int
    #: File sizes swept by the sequential benchmark (Figures 4 and 5).
    bench_file_sizes: Tuple[int, ...]


def _paper_sizes(max_size: int) -> Tuple[int, ...]:
    """The paper's size sweep: powers of two 16 KB..32 MB plus the
    structurally interesting points 56 KB (cluster size), 96 KB (last
    direct-block size), and 104 KB (first indirect size)."""
    sizes = [16 * KB, 32 * KB, 56 * KB, 64 * KB, 96 * KB, 104 * KB, 128 * KB]
    size = 256 * KB
    while size <= max_size:
        sizes.append(size)
        size *= 2
    return tuple(s for s in sizes if s <= max_size)


PRESETS: Dict[str, Preset] = {
    "tiny": Preset(
        name="tiny",
        params=scaled_params(24 * MB),
        days=20,
        seed=1996,
        bench_total_bytes=1 * MB,
        bench_repetitions=3,
        bench_file_sizes=_paper_sizes(512 * KB),
    ),
    "small": Preset(
        name="small",
        params=scaled_params(96 * MB),
        days=100,
        seed=1996,
        bench_total_bytes=6 * MB,
        bench_repetitions=5,
        bench_file_sizes=_paper_sizes(2 * MB),
    ),
    "paper": Preset(
        name="paper",
        params=FSParams(),  # 502 MB, 27 groups — Table 1 exactly
        days=300,
        seed=1996,
        bench_total_bytes=32 * MB,
        bench_repetitions=10,
        bench_file_sizes=_paper_sizes(32 * MB),
    ),
}


def get_preset(name: str) -> Preset:
    """Look up a preset by name with a helpful error."""
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; choose from {sorted(PRESETS)}"
        ) from None


def aging_config(preset_name: str) -> AgingConfig:
    """The aging-pipeline configuration for a preset.

    Also the cache-key material for that preset's aged artifacts: two
    runs with equal configs are interchangeable, so the persistent
    cache hashes exactly this.
    """
    preset = get_preset(preset_name)
    return AgingConfig(params=preset.params, days=preset.days, seed=preset.seed)


@lru_cache(maxsize=None)
def artifacts(preset_name: str) -> AgingArtifacts:
    """The aging workloads for a preset (built once per process)."""
    return build_workloads(aging_config(preset_name))


def _replayed(
    preset_name: str, workload: str, policy: str, label: str
) -> ReplayResult:
    """One aged file system, through the persistent cache when enabled.

    Misses replay the workload and (best-effort) persist the result;
    hits skip both the workload construction and the replay, which is
    what makes a warm ``experiment all`` fast and what lets parallel
    workers share agings instead of each redoing them.
    """
    store = cache.store()
    key = None
    if store is not None:
        key = cache.replay_key(
            preset_name, aging_config(preset_name), workload, policy, label
        )
        cached = store.load_replay(key)
        if cached is not None:
            return cached
    art = artifacts(preset_name)
    source = art.reconstructed if workload == "reconstructed" else art.ground_truth
    result = age_file_system(
        source,
        params=get_preset(preset_name).params,
        policy=policy,
        label=label,
    )
    if store is not None and key is not None:
        store.save_replay(key, result)
    return result


@lru_cache(maxsize=None)
def aged(preset_name: str, policy: str) -> ReplayResult:
    """The reconstructed workload replayed under ``policy``."""
    label = "FFS + Realloc" if policy == "realloc" else "FFS"
    return _replayed(preset_name, "reconstructed", policy, label)


@lru_cache(maxsize=None)
def aged_real(preset_name: str) -> ReplayResult:
    """The ground-truth workload replayed under the original policy.

    This is the stand-in for "the original file system" in the Figure 1
    validation: the activity the snapshots could not capture is present
    here and absent from the reconstruction.
    """
    return _replayed(preset_name, "ground-truth", "ffs", "Real")


def aged_fs_copy(preset_name: str, policy: str) -> FileSystem:
    """A private deep copy of an aged file system, safe to mutate."""
    return copy.deepcopy(aged(preset_name, policy).fs)


def clear_caches() -> None:
    """Drop every in-process experiment memo.

    Covers the accessors here *and* the per-experiment ``lru_cache``
    memos in the experiment modules (found by scanning loaded modules,
    so nothing gets imported as a side effect).  Tests use this to
    control memory; parallel workers use it so that work re-done under
    a fresh telemetry session is not short-circuited by results
    memoized under an earlier (already snapshotted) one.
    """
    import sys

    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro.experiments"):
            continue
        for attr in vars(module).values():
            if callable(attr) and hasattr(attr, "cache_clear"):
                attr.cache_clear()
