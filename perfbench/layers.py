"""The program's layers as the benchmark sees them.

``install`` wraps the public callables that bound each layer (see the
table in README.md); ``metrics`` turns the resulting span totals and the
program's own ``repro.obs`` counters into the per-layer metrics named in
BENCHMARK.json.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Iterable

from spans import SpanTracer

FFS_OPS = ("create_file", "append", "delete_file")
DISK_OPS = ("access", "transfer_extents", "synchronous_metadata_write")
REPLAY_KINDS = ("ffs", "realloc", "real")


def install(tracer: SpanTracer, full: bool) -> None:
    """Wrap the layer boundaries; with ``full`` off, only the guards'.

    The untraced run wraps just the cache and replay boundaries, whose
    call counts the run-validity guards need; they see at most six calls
    per process, against tens of thousands of allocator calls.
    """
    from repro.aging.replay import AgingReplayer
    from repro.cache.store import ArtifactCache

    def after_load(args: tuple, result: object, _elapsed: float) -> None:
        if result is None:
            return
        tracer.count("cache.hits_seen")
        store, key = args[0], args[1]
        tracer.count("cache.bytes", os.path.getsize(store.path_for(key)))

    def after_save(_args: tuple, path: object, _elapsed: float) -> None:
        if path is not None:
            tracer.count("cache.bytes", os.path.getsize(path))  # type: ignore[arg-type]

    def after_replay(args: tuple, result: object, elapsed: float) -> None:
        replayer = args[0]
        kind = "real" if replayer.label == "Real" else replayer.fs.policy.name
        tracer.count(f"aging.replay.{kind}.busy_s", elapsed)
        tracer.count("aging.replay.ops", result.ops_applied)  # type: ignore[attr-defined]
        tracer.count("aging.replay.enospc", result.skipped_no_space)  # type: ignore[attr-defined]

    tracer.patch_method(ArtifactCache, "load_replay", "cache.load", after_load)
    tracer.patch_method(ArtifactCache, "save_replay", "cache.save", after_save)
    tracer.patch_method(AgingReplayer, "replay", "aging.replay", after_replay)
    if not full:
        return

    from repro.aging import diff, generator, nfstrace
    from repro.aging.snapshot import SourceActivityModel
    from repro.bench.hotfiles import HotFileBenchmark
    from repro.bench.sequential import SequentialIOBenchmark
    from repro.disk.model import DiskModel
    from repro.experiments import config
    from repro.ffs.filesystem import FileSystem
    from repro.lfs import replay as lfs_replay

    def after_build(_args: tuple, art: object, _elapsed: float) -> None:
        tracer.count(
            "aging.build.records",
            len(art.ground_truth) + len(art.reconstructed),  # type: ignore[attr-defined]
        )

    tracer.patch_function(generator.build_workloads, "aging.build", after_build)
    tracer.patch_method(SourceActivityModel, "generate", "aging.snapshot")
    tracer.patch_function(diff.diff_snapshots, "aging.diff")
    tracer.patch_function(diff.merge_days, "aging.diff")
    tracer.patch_function(nfstrace.integrate_short_lived, "aging.nfstrace")
    for op in FFS_OPS:
        tracer.patch_method(FileSystem, op, f"ffs.{op}")
    tracer.patch_function(config.aged_fs_copy, "experiments.aged_fs_copy")
    tracer.patch_method(SequentialIOBenchmark, "run", "bench.sequential")
    tracer.patch_method(HotFileBenchmark, "run", "bench.hotfiles")
    for op in DISK_OPS:
        tracer.patch_method(DiskModel, op, f"disk.{op}")
    tracer.patch_function(lfs_replay.age_lfs, "lfs.age")


def metrics(
    tracer: SpanTracer,
    counter: Callable[[str], float],
    experiments: Iterable[str],
) -> Dict[str, float]:
    """Every per-layer metric, from span totals and ``counter(name)``.

    ``counter`` reads one of the program's own ``repro.obs`` counters.
    """
    t = tracer
    out: Dict[str, float] = {
        "aging.build.calls": t.calls("aging.build"),
        "aging.build.busy_s": t.busy("aging.build"),
        "aging.build.records": int(t.counts.get("aging.build.records", 0)),
        "aging.snapshot.busy_s": t.busy("aging.snapshot"),
        "aging.diff.busy_s": t.busy("aging.diff"),
        "aging.nfstrace.busy_s": t.busy("aging.nfstrace"),
        "aging.replay.calls": t.calls("aging.replay"),
        "aging.replay.busy_s": t.busy("aging.replay"),
        "aging.replay.self_s": t.self_time("aging.replay"),
        "aging.replay.ops": int(t.counts.get("aging.replay.ops", 0)),
        "aging.replay.enospc": int(t.counts.get("aging.replay.enospc", 0)),
        "aging.replay.ops_per_s": _ratio(
            t.counts.get("aging.replay.ops", 0), t.busy("aging.replay")
        ),
    }
    for kind in REPLAY_KINDS:
        out[f"aging.replay.{kind}.busy_s"] = t.counts.get(
            f"aging.replay.{kind}.busy_s", 0.0
        )
    for op in FFS_OPS:
        calls = t.calls(f"ffs.{op}")
        self_s = t.self_time(f"ffs.{op}")
        out[f"ffs.{op}.calls"] = calls
        out[f"ffs.{op}.self_s"] = self_s
        out[f"ffs.{op}.us_per_call"] = _ratio(self_s * 1e6, calls)
    attempts = int(counter("realloc.attempts"))
    relocations = int(counter("realloc.relocations"))
    out.update({
        "alloc.ffs.fallbacks": int(counter("alloc.ffs.fallbacks")),
        "alloc.realloc.fallbacks": int(counter("alloc.realloc.fallbacks")),
        "realloc.attempts": attempts,
        "realloc.relocations": relocations,
        "realloc.relocation_rate": _ratio(relocations, attempts),
    })
    for name in experiments:
        out[f"experiments.{name}.self_s"] = t.self_time(f"experiments.{name}")
    out.update({
        "experiments.aged_fs_copy.calls": t.calls("experiments.aged_fs_copy"),
        "experiments.aged_fs_copy.busy_s": t.busy("experiments.aged_fs_copy"),
        "experiments.render.busy_s": t.busy("experiments.render"),
        "bench.sequential.calls": t.calls("bench.sequential"),
        "bench.sequential.busy_s": t.busy("bench.sequential"),
        "bench.hotfiles.calls": t.calls("bench.hotfiles"),
        "bench.hotfiles.busy_s": t.busy("bench.hotfiles"),
    })
    for op in DISK_OPS:
        out[f"disk.{op}.calls"] = t.calls(f"disk.{op}")
        out[f"disk.{op}.self_s"] = t.self_time(f"disk.{op}")
    for name in ("reads", "writes", "lost_rotations", "buffer_hits"):
        out[f"disk.{name}"] = int(counter(f"disk.{name}"))
    out.update({
        "cache.load.calls": t.calls("cache.load"),
        "cache.load.busy_s": t.busy("cache.load"),
        "cache.save.calls": t.calls("cache.save"),
        "cache.save.busy_s": t.busy("cache.save"),
        "cache.hits": int(counter("cache.hits")),
        "cache.misses": int(counter("cache.misses")),
        "cache.bytes": int(t.counts.get("cache.bytes", 0)),
        "lfs.age.calls": t.calls("lfs.age"),
        "lfs.age.busy_s": t.busy("lfs.age"),
    })
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
