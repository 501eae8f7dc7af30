"""One benchmark process: set up, run one workload body, check it, report.

``run.py`` starts these one at a time; each prints one JSON object as
its last line of stdout::

    python3 perfbench/workload.py KIND --seed N --launch T [--cache-dir D] [--trace]

KIND is ``cold`` or ``warm`` (``experiment all --preset small`` against
the cache in D, which must be empty or primed), ``paper`` (build the
paper-preset workloads and age them under ``ffs`` then ``realloc``) or
``setup`` (set up, then stop).  Without D the cache is off.  T is the
launching process's ``time.monotonic()`` just before the launch, so
``setup_host_s`` covers interpreter start, imports and cache
configuration; ``setup_s`` is that time scaled to the nominal host by
``calib.nominal_seconds``.

Untraced, the body runs with ``calib.Sampler`` interleaving reference
rounds, which gives ``wall_ref`` beside ``wall_s``.

A wrong output counts as a failed operation.  A run that did not do
what its label says (a cold run that hit the cache, a warm run that
replayed) is not a measurement at all: it exits 3.
"""

import argparse
import dataclasses
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PRESET = "small"


class Mislabelled(Exception):
    """The run's cache or replay behaviour contradicts its workload label."""


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("kind", choices=("cold", "warm", "paper", "setup"))
    parser.add_argument("--launch", type=float, required=True)
    parser.add_argument("--cache-dir")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    from repro import cache, obs
    import repro.cli  # noqa: F401  (a user's process imports the CLI)
    from repro.experiments import runner

    import calib
    import layers
    from spans import SpanTracer

    if args.cache_dir is None:
        cache.configure(enabled=False)
    else:
        cache.configure(enabled=True, directory=args.cache_dir)
    tracer = SpanTracer()
    if args.trace:
        obs.enable()
    layers.install(tracer, full=args.trace)
    setup_host_s = time.monotonic() - args.launch
    setup = {
        "setup_host_s": setup_host_s,
        "setup_s": calib.nominal_seconds(setup_host_s),
    }
    if args.kind == "setup":
        _emit(setup)
        return 0

    expected = json.loads((HERE / "expected.json").read_text())
    sampler = calib.Sampler(active=not args.trace)
    try:
        if args.kind == "paper":
            if cache.is_enabled():
                raise Mislabelled("age-paper must run with the cache off")
            out = _run_paper(tracer, sampler, args.seed, expected["paper"])
        else:
            out = _run_suite(tracer, sampler, runner, expected["suite"])
        _check_guards(args.kind, tracer, Path(args.cache_dir or "."))
    except Mislabelled as exc:
        print(f"perfbench: mislabelled {args.kind} run: {exc}", file=sys.stderr)
        return 3
    out.update(setup)
    if args.trace:
        registry = obs.metrics()
        out["layers"] = layers.metrics(
            tracer, lambda name: registry.counter(name).value, runner.EXPERIMENTS
        )
    _emit(out)
    return 0


def _run_suite(tracer, sampler, runner, expected: dict) -> dict:
    """``experiment all --preset small``, rendered as the CLI renders it."""
    names = list(runner.EXPERIMENTS)
    texts = {}
    failed = 0
    sampler.start()
    results = runner.iter_all(PRESET)
    fig4 = None
    try:
        for expected_name in names:
            name, result, _ = tracer.call(
                f"experiments.{expected_name}", next, results
            )
            texts[name] = tracer.call("experiments.render", result.render)
            if name == "fig4":
                fig4 = result
    except Exception:  # one broken experiment ends the generator
        traceback.print_exc()
    sampler.stop()
    peak = _peak_rss_mb()
    for name in names:
        if name not in texts or _sha(texts[name]) != expected["blocks"][name]:
            failed += 1
    stdout = "\n\n".join(
        f"{runner.experiment_header(name, PRESET)}\n\n{text}"
        for name, text in texts.items()
    ) + "\n"
    if failed == 0 and _sha(stdout) != expected["stdout"]:
        failed = len(names)  # every block matched but the whole did not
    return {
        **sampler.report(),
        "peak_rss_mb": peak,
        "attempted": len(names),
        "failed": failed,
        "simulated": _fig4_64k(fig4) if fig4 is not None else {},
    }


def _run_paper(tracer, sampler, seed: int, expected: dict) -> dict:
    """Build the paper-preset workloads, then age them under both policies.

    Three timed operations back to back; the correctness checks (fsck,
    layout-score recompute, and at the preset seed the fixed values) run
    after the timed body, on both aged file systems.
    """
    from repro.aging import generator, replay
    from repro.analysis.layout import aggregate_layout_score
    from repro.experiments.config import aging_config
    from repro.ffs.check import check_filesystem

    cfg = dataclasses.replace(aging_config("paper"), seed=seed)
    attempted, failed = 0, 0
    replays = {}
    sampler.start()
    try:
        attempted += 1
        art = generator.build_workloads(cfg)
    except Exception:
        traceback.print_exc()
        art = None
        failed += 1
    for policy in ("ffs", "realloc"):
        attempted += 1
        if art is None:
            failed += 1
            continue
        try:
            replays[policy] = replay.age_file_system(
                art.reconstructed, params=cfg.params, policy=policy
            )
        except Exception:
            traceback.print_exc()
            failed += 1
    sampler.stop()
    peak = _peak_rss_mb()

    scores = {}
    for policy, result in replays.items():
        problems = []
        try:
            check_filesystem(result.fs)
        except Exception as exc:
            problems.append(f"fsck: {exc}")
        score = result.timeline.samples[-1].layout_score
        scores[policy] = score
        recomputed = aggregate_layout_score(result.fs)
        if recomputed != score:
            problems.append(f"layout score {recomputed!r} != incremental {score!r}")
        if seed == expected["seed"]:
            got = {
                "ops_applied": result.ops_applied,
                "enospc": result.skipped_no_space,
                "layout_score": round(score, 6),
            }
            want = {
                "ops_applied": expected["ops_applied"],
                "enospc": 0,
                "layout_score": expected["layout_score"][policy],
            }
            if got != want:
                problems.append(f"got {got}, want {want}")
        if problems:
            print(f"perfbench: age-paper {policy}: {'; '.join(problems)}", file=sys.stderr)
            failed += 1
    return {
        **sampler.report(),
        "peak_rss_mb": peak,
        "attempted": attempted,
        "failed": failed,
        "simulated": {f"layout_score.{p}": s for p, s in scores.items()},
    }


def _check_guards(kind: str, tracer, cache_dir: Path) -> None:
    """Refuse a run whose cache traffic contradicts its label."""
    replays = tracer.calls("aging.replay")
    hits = int(tracer.counts.get("cache.hits_seen", 0))
    loads, saves = tracer.calls("cache.load"), tracer.calls("cache.save")
    entries = len(list(cache_dir.glob("*.json"))) if kind != "paper" else 0
    seen = f"{hits} cache hits, {replays} replays, {saves} saves, {entries} entries"
    if kind == "cold" and (hits, replays, saves, entries) != (0, 3, 3, 3):
        raise Mislabelled(f"want 0 hits, 3 replays, 3 saves, 3 entries; saw {seen}")
    if kind == "warm" and (hits, replays, saves, entries) != (3, 0, 0, 3):
        raise Mislabelled(f"want 3 hits, 0 replays, 0 saves, 3 entries; saw {seen}")
    if kind == "paper" and (loads, saves) != (0, 0):
        raise Mislabelled(f"the cache is off, yet saw {loads} loads, {saves} saves")


def _fig4_64k(result) -> dict:
    """Figure 4's simulated read/write MB/s at 64 KB, per policy."""
    from repro.units import KB, MB

    out = {}
    for policy, by_size in result.results.items():
        point = by_size[64 * KB]
        out[f"fig4.read_MBps.64KB.{policy}"] = point.read_throughput.mean / MB
        out[f"fig4.write_MBps.64KB.{policy}"] = point.write_throughput.mean / MB
    return out


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True), flush=True)


if __name__ == "__main__":
    sys.exit(main())
