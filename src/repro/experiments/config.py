"""Scale presets and cached experiment artifacts.

Replaying ten months of activity twice per experiment is the expensive
part of the reproduction, so experiments share artifacts through the
cached accessors here:

* :func:`artifacts` — the aging workloads (ground truth, snapshots,
  reconstruction) for a preset;
* :func:`age` — one :class:`Aging` spec through the persistent cache
  (batches go through :func:`repro.parallel.age_many`);
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
import dataclasses
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, Optional, Tuple

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
    cache hashes this (see :meth:`Aging.key`).
    """
    preset = get_preset(preset_name)
    return AgingConfig(params=preset.params, days=preset.days, seed=preset.seed)


@lru_cache(maxsize=None)
def artifacts(preset_name: str) -> AgingArtifacts:
    """The aging workloads for a preset (built once per process)."""
    return build_workloads(aging_config(preset_name))


#: The suite's replay labels; any other aging is labelled by its policy.
_LABELS = {
    ("reconstructed", "ffs"): "FFS",
    ("reconstructed", "realloc"): "FFS + Realloc",
    ("ground-truth", "ffs"): "Real",
}


@dataclass(frozen=True)
class Aging:
    """One aging, identified (and cache-keyed) by the ``config`` of the
    workload built, the ``params`` replayed onto (``config.params`` when
    ``None``), the ``workload`` flavour and the ``policy``; ``preset``
    only names the cache file."""

    preset: str
    config: AgingConfig
    workload: str = "reconstructed"
    policy: str = "ffs"
    params: Optional[FSParams] = None

    @property
    def label(self) -> str:
        return _LABELS.get((self.workload, self.policy), self.policy)

    def key(self) -> cache.CacheKey:
        return cache.replay_key(
            self.preset, self.config, self.workload, self.policy, self.params
        )


def preset_aging(
    preset_name: str, policy: str = "ffs", workload: str = "reconstructed",
    **overrides: Any,
) -> Aging:
    """An aging of a preset's own workload; keyword arguments override
    the file-system parameters (the ablation knobs)."""
    config = aging_config(preset_name)
    params = dataclasses.replace(config.params, **overrides) if overrides else None
    return Aging(preset_name, config, workload, policy, params)


def age(
    spec: Aging, built: Optional[Dict[AgingConfig, AgingArtifacts]] = None
) -> ReplayResult:
    """One aged file system, through the persistent cache when enabled.

    Hits skip the workload build and the replay.  Misses build the
    workload (a preset's own via :func:`artifacts`, any other into
    ``built``, so a batch builds each once), replay it, and persist the
    result (best-effort).
    """
    store = cache.store()
    cached = store.load_replay(spec.key()) if store is not None else None
    if cached is not None:
        return cached
    if spec.config == aging_config(spec.preset):
        art = artifacts(spec.preset)
    else:
        built = {} if built is None else built
        if spec.config not in built:
            built[spec.config] = build_workloads(spec.config)
        art = built[spec.config]
    result = age_file_system(
        art.reconstructed if spec.workload == "reconstructed"
        else art.ground_truth,
        params=spec.params or spec.config.params,
        policy=spec.policy,
        label=spec.label,
    )
    if store is not None:
        store.save_replay(spec.key(), result)
    return result


@lru_cache(maxsize=None)
def aged(preset_name: str, policy: str) -> ReplayResult:
    """The reconstructed workload replayed under ``policy``."""
    return age(preset_aging(preset_name, policy))


@lru_cache(maxsize=None)
def aged_real(preset_name: str) -> ReplayResult:
    """The ground-truth workload replayed under the original policy.

    This is the stand-in for "the original file system" in the Figure 1
    validation: the activity the snapshots could not capture is present
    here and absent from the reconstruction.
    """
    return age(preset_aging(preset_name, workload="ground-truth"))


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
