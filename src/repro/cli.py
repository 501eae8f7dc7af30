"""Command-line interface: ``repro-ffs``.

Subcommands:

* ``age``        — build the aging workload and replay it under one or
  both policies, printing the daily layout-score trajectory.
* ``workload``   — generate the aging workload and write it to a file
  (the paper made its workload downloadable; this is ours).
* ``experiment`` — run one experiment (``table1``, ``fig1`` ... ``fig6``,
  ``table2``, the extensions) or ``all``, and print the paper-style
  tables/charts.
* ``freespace``  — age a file system and report its free-space
  fragmentation statistics (``--json`` for machine-readable output).
* ``ablation``   — run a design-choice ablation study (``maxcontig``,
  ``cluster-fit``, ``trigger``, ``indirect``, ``fallback``, or ``all``).
* ``profiles``   — compare aging under different usage-pattern
  workloads.
* ``stats``      — render a captured ``--metrics`` manifest as
  paper-style tables.
* ``cache``      — inspect (``ls``) or drop (``clear``) the persistent
  artifact cache that makes warm reruns fast.
* ``report``     — join a run's telemetry artifacts (manifest + event
  log + trace) into one self-contained offline HTML page.
* ``inspect``    — block-placement maps and fragmentation profile of a
  saved image, or of a file system aged in place.
* ``fsck``       — verify a saved image's invariants, or ``--repair`` a
  damaged one back to a verified-clean state (see :mod:`repro.fsck`).
* ``chaos``      — crash aging replays at seeded points, repair the
  wreckage with fsck, and report the layout/throughput cost against a
  clean halt at the same instant (see :mod:`repro.faults`).
* ``diff``       — structurally compare two recorded runs (registry
  ids or manifest files): config, metrics, timelines, disk traces,
  placement — every delta classified noise/notable/regression by the
  shared significance rules in :mod:`repro.obs.diff`.
* ``history``    — list the run registry (``--record``), filtered by
  ``--command``/``--policy``/``--limit``; ``--drift`` fits per-policy
  trend lines over the archived summaries and flags metric drift.
* ``lint``       — run replint, the repo-aware static-analysis pass.

The subcommands that age or generate (``age``, ``workload``,
``experiment``, ``freespace``, ``ablation``, ``profiles``, ``inspect``,
``chaos``) take ``--preset tiny|small|paper`` (default small) and
``--no-cache`` / ``--cache-dir DIR`` to control the persistent artifact
cache (see :mod:`repro.cache`); ``cache`` takes the cache flags too.
Every subcommand except ``report``, ``history``, ``diff`` and ``lint``
takes the telemetry flags ``--metrics FILE`` (write a JSON run
manifest: config + environment + metrics), ``--trace FILE`` (write the
span trace as JSONL), ``--events FILE`` (write the typed event log as
JSONL), and ``--profile`` (per-phase cProfile attribution, folded into
the manifest and printed to stderr).  Telemetry is off — a no-op —
unless one of those flags is given.  ``experiment all`` and ``chaos``
take ``--jobs N`` to fan work across worker processes.
``experiment`` and ``chaos`` take ``--backend disk|ssd`` to price I/O
on the rotating disk (default) or the FTL-backed flash substrate (see
:mod:`repro.ssd`); the name is passed down as an argument and recorded
in the run manifest.

Wall-clock timing of the reproduction itself is not a subcommand: the
repository benchmark lives in ``perfbench/`` (see its README).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro import cache, obs, storage
from repro.analysis.freespace import free_cluster_histogram, free_space_stats
from repro.analysis.report import render_disk_stats, render_table
from repro.experiments.config import PRESETS, aged, artifacts, get_preset
from repro.experiments.runner import (
    EXPERIMENTS,
    EXTRA_EXPERIMENTS,
    experiment_header,
    iter_all_rendered,
    run_one_timed,
    slowest_summary,
)
from repro.units import MB, fmt_size


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``repro-ffs`` console script.

    Every subcommand shares one failure contract: 0 success, 1
    operational failure (a simulation error, a failed gate), 2 usage
    error (bad arguments, missing or unreadable files).  Typed
    simulation errors and OS errors escaping a handler are routed
    through :func:`repro.errors.exit_code_for` and printed as one-line
    messages — no subcommand leaks a traceback for a bad ``--image`` or
    a missing path.
    """
    from repro.errors import SimulationError, exit_code_for

    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    cache.configure(
        enabled=False if getattr(args, "no_cache", False) else None,
        directory=getattr(args, "cache_dir", None),
    )
    wants_telemetry = (
        getattr(args, "metrics", None)
        or getattr(args, "trace", None)
        or getattr(args, "events", None)
        or getattr(args, "disk_trace", None)
        or getattr(args, "record", False)
        or getattr(args, "profile", False)
    )
    try:
        # `report` consumes telemetry files; its --events is an input
        # path, not a capture request, so it opts out of the session.
        if getattr(args, "_no_telemetry", False) or not wants_telemetry:
            return args.handler(args)
        return _run_with_telemetry(args)
    except (SimulationError, OSError) as exc:
        print(f"repro-ffs {args.command}: {exc}", file=sys.stderr)
        return exit_code_for(exc)


def _run_with_telemetry(args: argparse.Namespace) -> int:
    """Run one subcommand under an active telemetry session.

    The whole invocation becomes the root span; afterwards the metrics
    snapshot is sealed into a run manifest (``--metrics``), the span
    trace is written as JSONL (``--trace``), the event log is written
    as JSONL (``--events``), and the per-phase profile is folded into
    the manifest and printed to stderr (``--profile``).
    """
    events_log = obs.EventLog() if getattr(args, "events", None) else None
    profiler = obs.PhaseProfiler() if getattr(args, "profile", False) else None
    disk_trace = (
        obs.DiskTrace() if getattr(args, "disk_trace", None) else None
    )
    with obs.session(
        events=events_log, profiler=profiler, disktrace=disk_trace
    ) as (registry, tracer):
        manifest = obs.RunManifest(
            command=args.command, config=_manifest_config(args)
        )
        start = time.perf_counter()
        with tracer.span(f"cli.{args.command}", preset=getattr(args, "preset", None)):
            if profiler is not None:
                with profiler.phase(f"cli.{args.command}"):
                    code = args.handler(args)
            else:
                code = args.handler(args)
        manifest.finish(time.perf_counter() - start, registry.snapshot())
        manifest.timings = dict(getattr(args, "_timings", {}) or {})
        if profiler is not None:
            from repro.obs.profiling import render_profile

            manifest.profile = profiler.report()
            print(render_profile(manifest.profile), file=sys.stderr)
        if args.metrics:
            with open(args.metrics, "w") as fp:
                manifest.dump(fp)
            print(f"[obs] wrote metrics manifest to {args.metrics}", file=sys.stderr)
        if args.trace:
            with open(args.trace, "w") as fp:
                spans = tracer.write_jsonl(fp)
            print(
                f"[obs] wrote {spans} spans to {args.trace}", file=sys.stderr
            )
        if events_log is not None:
            with open(args.events, "w") as fp:
                count = events_log.write_jsonl(fp)
            dropped = (
                f" ({events_log.dropped} dropped)" if events_log.dropped else ""
            )
            print(
                f"[obs] wrote {count} events to {args.events}{dropped}",
                file=sys.stderr,
            )
        if disk_trace is not None:
            with open(args.disk_trace, "w") as fp:
                count = disk_trace.write_jsonl(fp)
            dropped = (
                f" ({disk_trace.dropped} dropped)" if disk_trace.dropped else ""
            )
            print(
                f"[obs] wrote {count} disk requests to "
                f"{args.disk_trace}{dropped}",
                file=sys.stderr,
            )
        if getattr(args, "record", False):
            from repro.obs.store import RunStore

            store = RunStore(getattr(args, "runs_dir", None))
            run_id = store.record(manifest)
            print(
                f"[obs] recorded run {run_id} in {store.root}",
                file=sys.stderr,
            )
    return code


def _manifest_config(args: argparse.Namespace) -> dict:
    """The invocation's parameters, minus plumbing, for the manifest."""
    return {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("handler", "command", "metrics", "trace", "events",
                       "profile", "disk_trace", "record", "runs_dir")
        and not key.startswith("_")
        and not callable(value)
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-ffs",
        description=(
            "Reproduction of Smith & Seltzer, 'A Comparison of FFS Disk "
            "Allocation Policies' (USENIX 1996)"
        ),
    )
    sub = parser.add_subparsers(dest="command")

    p_age = sub.add_parser("age", help="age a file system and print the trajectory")
    _add_preset(p_age)
    p_age.add_argument(
        "--policy", choices=["ffs", "realloc", "both"], default="both",
        help="allocation policy to age under",
    )
    p_age.add_argument(
        "--workload", metavar="FILE", default=None,
        help="replay a workload file (from `repro-ffs workload`) instead "
        "of the preset's generated workload",
    )
    p_age.add_argument(
        "--save-image", metavar="FILE", default=None,
        help="save the aged file system(s) as JSON images "
        "(FILE gets a .<policy> suffix when aging both policies)",
    )
    p_age.set_defaults(handler=_cmd_age)

    p_fsck = sub.add_parser(
        "fsck", help="verify (or repair) a saved file-system image"
    )
    p_fsck.add_argument("image", help="image file from `age --save-image`")
    p_fsck.add_argument(
        "--repair", action="store_true",
        help="repair the image instead of just verifying it: rebuild "
        "every redundant structure from the inode table and fix "
        "whatever damage the scan classifies (see repro.fsck)",
    )
    p_fsck.add_argument(
        "--save", metavar="FILE", default=None,
        help="with --repair: write the repaired image to FILE",
    )
    p_fsck.add_argument(
        "--json", action="store_true", dest="as_json",
        help="with --repair: print the repair report as JSON",
    )
    p_fsck.set_defaults(handler=_cmd_fsck)

    p_chaos = sub.add_parser(
        "chaos",
        help="crash aging replays at sampled points, fsck the wreckage, "
        "and compare against clean halts",
    )
    _add_preset(p_chaos)
    p_chaos.add_argument(
        "--policy", choices=["ffs", "realloc", "both"], default="both",
        help="allocation policy (default: both)",
    )
    p_chaos.add_argument(
        "--crashes", type=int, default=3, metavar="N",
        help="crash plans sampled per policy (default: 3)",
    )
    p_chaos.add_argument(
        "--seed", type=int, default=4242,
        help="master seed of the crash-point grid (default: 4242)",
    )
    p_chaos.add_argument(
        "--max-write", type=int, default=400, metavar="N",
        help="latest block write (since the crash day armed) a sampled "
        "crash point may fire at (default: 400)",
    )
    p_chaos.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run cases across N worker processes (default: 1, serial); "
        "output is byte-identical to serial",
    )
    p_chaos.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the full report as JSON (repro.chaos/v1) on stdout",
    )
    p_chaos.add_argument(
        "--output", metavar="FILE", default=None,
        help="also write the JSON report to FILE",
    )
    p_chaos.set_defaults(handler=_cmd_chaos)

    p_wl = sub.add_parser("workload", help="generate and save the aging workload")
    _add_preset(p_wl)
    p_wl.add_argument("output", help="path to write the workload file")
    p_wl.add_argument(
        "--which", choices=["reconstructed", "ground-truth"],
        default="reconstructed", help="which workload to save",
    )
    p_wl.set_defaults(handler=_cmd_workload)

    p_exp = sub.add_parser("experiment", help="run a paper experiment")
    _add_preset(p_exp)
    p_exp.add_argument(
        "name",
        choices=sorted({**EXPERIMENTS, **EXTRA_EXPERIMENTS}) + ["all"],
        help="experiment to run (`all` runs the paper suite; extras "
        "like `flash` run only by name)",
    )
    p_exp.add_argument(
        "--csv", metavar="FILE", default=None,
        help="also write the experiment's numeric series as CSV "
        "(figures with series only)",
    )
    p_exp.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run `all` across N worker processes (default: 1, serial); "
        "output is byte-identical to serial",
    )
    p_exp.add_argument(
        "--slowest", action="store_true",
        help="after `all`, print the slowest experiments to stderr",
    )
    p_exp.set_defaults(handler=_cmd_experiment)

    p_free = sub.add_parser(
        "freespace", help="free-space fragmentation of an aged file system"
    )
    _add_preset(p_free)
    p_free.add_argument(
        "--policy", choices=["ffs", "realloc"], default="ffs",
    )
    p_free.add_argument(
        "--json", action="store_true",
        help="emit the statistics and run-length histogram as JSON",
    )
    p_free.set_defaults(handler=_cmd_freespace)

    p_stats = sub.add_parser(
        "stats", help="render a captured --metrics manifest as tables"
    )
    p_stats.add_argument("manifest", help="manifest file from a --metrics run")
    p_stats.set_defaults(handler=_cmd_stats)

    p_abl = sub.add_parser(
        "ablation", help="run a design-choice ablation study"
    )
    _add_preset(p_abl)
    p_abl.add_argument(
        "name",
        choices=["maxcontig", "cluster-fit", "trigger", "indirect",
                 "fallback", "all"],
        help="which design choice to ablate",
    )
    p_abl.set_defaults(handler=_cmd_ablation)

    p_prof = sub.add_parser(
        "profiles",
        help="compare aging under different usage-pattern workloads",
    )
    _add_preset(p_prof)
    p_prof.set_defaults(handler=_cmd_profiles)

    p_cache = sub.add_parser(
        "cache", help="inspect or clear the persistent artifact cache"
    )
    p_cache.add_argument(
        "action", choices=["ls", "clear"],
        help="ls: list entries; clear: remove them all",
    )
    p_cache.set_defaults(handler=_cmd_cache)

    p_report = sub.add_parser(
        "report",
        help="render a run's telemetry artifacts as one offline HTML page",
    )
    p_report.add_argument(
        "manifest", help="run manifest from a --metrics run"
    )
    p_report.add_argument(
        "--events", metavar="FILE", default=None,
        help="event log (JSONL) from the same run's --events",
    )
    p_report.add_argument(
        "--trace", metavar="FILE", default=None,
        help="span trace (JSONL) from the same run's --trace",
    )
    p_report.add_argument(
        "--compare", metavar="MANIFEST", default=None,
        help="second run manifest to overlay (e.g. the other policy)",
    )
    p_report.add_argument(
        "--compare-events", metavar="FILE", default=None,
        help="event log of the --compare run",
    )
    p_report.add_argument(
        "--disk-trace", metavar="FILE", default=None,
        help="per-request disk I/O trace (JSONL) from the same run's "
        "--disk-trace",
    )
    p_report.add_argument(
        "--runs-dir", metavar="DIR", default=None,
        help="run registry (from --record) for the trend-line panel",
    )
    p_report.add_argument(
        "--output", metavar="FILE", default="run-report.html",
        help="HTML output path (default: run-report.html)",
    )
    p_report.set_defaults(handler=_cmd_report, _no_telemetry=True)

    p_insp = sub.add_parser(
        "inspect",
        help="block-placement maps and fragmentation profile of a saved "
        "image or a freshly aged file system",
    )
    _add_preset(p_insp)
    p_insp.add_argument(
        "images", nargs="*", metavar="IMAGE",
        help="saved image(s) from `age --save-image` (none: age the "
        "preset in place; two: compare them)",
    )
    p_insp.add_argument(
        "--policy", choices=["ffs", "realloc", "both"], default="ffs",
        help="policy to age under when no image is given "
        "(both: compare the two policies)",
    )
    p_insp.add_argument(
        "--top", type=int, default=15, metavar="N",
        help="largest files to list (default: 15)",
    )
    p_insp.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the placement document(s) as JSON (repro.inspect/v1)",
    )
    p_insp.add_argument(
        "--html", metavar="FILE", default=None,
        help="also render the inspection as a self-contained HTML page",
    )
    p_insp.set_defaults(handler=_cmd_inspect)

    p_hist = sub.add_parser(
        "history",
        help="list the run registry recorded by --record",
    )
    p_hist.add_argument(
        "--runs-dir", metavar="DIR", default=None,
        help="run registry location (default: .repro/runs/)",
    )
    p_hist.add_argument(
        "--command", metavar="NAME", default=None, dest="filter_command",
        help="only runs recorded by this subcommand (exact match)",
    )
    p_hist.add_argument(
        "--policy", metavar="POLICY", default=None, dest="filter_policy",
        help="only runs recorded with this --policy value "
        "(ffs/realloc/both, exact match)",
    )
    p_hist.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="keep only the newest N runs after filtering",
    )
    p_hist.add_argument(
        "--drift", action="store_true",
        help="fit per-policy trend lines (layout score, MB/s, lost "
        "rotations, seek p99) over the filtered runs and flag drift",
    )
    p_hist.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the run documents as a JSON array instead of a table "
        "(with --drift: the repro.drift/v1 document)",
    )
    p_hist.set_defaults(handler=_cmd_history, _no_telemetry=True)

    p_diff = sub.add_parser(
        "diff",
        help="structurally compare two recorded runs and classify "
        "every delta noise/notable/regression",
    )
    p_diff.add_argument(
        "run_a", metavar="RUN_A",
        help="baseline side: a registry run id (or unique prefix), a "
        "registry document, or a --metrics manifest file",
    )
    p_diff.add_argument(
        "run_b", metavar="RUN_B",
        help="comparison side, same forms as RUN_A",
    )
    p_diff.add_argument(
        "--runs-dir", metavar="DIR", default=None,
        help="run registry to resolve run ids in (default: .repro/runs/)",
    )
    p_diff.add_argument(
        "--events-a", metavar="FILE", default=None,
        help="event log (JSONL) captured by run A's --events",
    )
    p_diff.add_argument(
        "--events-b", metavar="FILE", default=None,
        help="event log (JSONL) captured by run B's --events",
    )
    p_diff.add_argument(
        "--disk-trace-a", metavar="FILE", default=None,
        help="disk I/O trace (JSONL) captured by run A's --disk-trace",
    )
    p_diff.add_argument(
        "--disk-trace-b", metavar="FILE", default=None,
        help="disk I/O trace (JSONL) captured by run B's --disk-trace",
    )
    p_diff.add_argument(
        "--image-a", metavar="FILE", default=None,
        help="saved image from run A (age --save-image) for the "
        "placement comparison",
    )
    p_diff.add_argument(
        "--image-b", metavar="FILE", default=None,
        help="saved image from run B for the placement comparison",
    )
    p_diff.add_argument(
        "--rel-threshold", type=float, default=None, metavar="FRAC",
        help="relative significance threshold (default: 0.05 = 5%%)",
    )
    p_diff.add_argument(
        "--abs-floor", type=float, default=None, metavar="X",
        help="absolute delta floor below which everything is noise "
        "(default: 0, with per-family floors for wall clock and scores)",
    )
    p_diff.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the diff document (repro.diff/v1) instead of text",
    )
    p_diff.add_argument(
        "--html", metavar="FILE", default=None,
        help="also render a self-contained side-by-side HTML report",
    )
    p_diff.set_defaults(handler=_cmd_diff, _no_telemetry=True)

    p_lint = sub.add_parser(
        "lint",
        help="run replint, the repo-aware static-analysis pass",
    )
    p_lint.add_argument(
        "paths", nargs="*", default=["src"], metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    p_lint.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit findings as JSON (replint.report/v1) instead of text",
    )
    p_lint.add_argument(
        "--select", metavar="RULES", default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    p_lint.add_argument(
        "--baseline", metavar="FILE", default=None,
        help="baseline file for grandfathered findings "
        "(default: .replint-baseline.json when it exists)",
    )
    p_lint.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline file; report every finding",
    )
    p_lint.add_argument(
        "--update-baseline", action="store_true",
        help="absorb the current findings into the baseline file and exit 0",
    )
    p_lint.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit",
    )
    p_lint.add_argument(
        "--explain", metavar="RULE", default=None,
        help="print one rule's full documentation and exit",
    )
    p_lint.add_argument(
        "--graph-json", metavar="FILE", default=None,
        help="also write the resolved whole-program call graph "
        "(replint.graph/v1) to FILE",
    )
    p_lint.set_defaults(handler=_cmd_lint, _no_telemetry=True)

    for sub_parser in (p_age, p_fsck, p_wl, p_exp, p_free, p_stats,
                       p_abl, p_prof, p_cache, p_chaos, p_insp):
        _add_obs(sub_parser)
    for sub_parser in (p_age, p_wl, p_exp, p_free, p_abl, p_prof,
                       p_cache, p_chaos, p_insp):
        _add_cache_flags(sub_parser)
    for sub_parser in (p_exp, p_chaos):
        _add_backend(sub_parser)
    return parser


def _add_preset(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--preset", choices=sorted(PRESETS), default="small",
        help="scale preset (default: small)",
    )


def _add_obs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics", metavar="FILE", default=None,
        help="capture telemetry and write a JSON run manifest "
        "(render it with `repro-ffs stats FILE`)",
    )
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="capture telemetry and write the span trace as JSONL",
    )
    parser.add_argument(
        "--events", metavar="FILE", default=None,
        help="capture telemetry and write the typed event log as JSONL "
        "(render it with `repro-ffs report`)",
    )
    parser.add_argument(
        "--disk-trace", metavar="FILE", default=None,
        help="capture telemetry and write the per-request disk I/O "
        "trace as JSONL (render it with `repro-ffs report`)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="profile each phase with cProfile; fold the top offenders "
        "into the --metrics manifest and print them to stderr",
    )
    parser.add_argument(
        "--record", action="store_true",
        help="capture telemetry and archive this run's manifest and "
        "summary metrics in the run registry "
        "(list it with `repro-ffs history`)",
    )
    parser.add_argument(
        "--runs-dir", metavar="DIR", default=None,
        help="run registry location for --record (default: .repro/runs/)",
    )


def _add_backend(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend", choices=list(storage.BACKENDS),
        default=storage.DEFAULT_BACKEND,
        help="storage substrate the run prices I/O on: the Table 1 "
        "rotating disk or the FTL-backed flash device (default: "
        f"{storage.DEFAULT_BACKEND})",
    )


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--no-cache", action="store_true",
        help="do not read or write the persistent artifact cache",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help=f"artifact cache location (default: {cache.DEFAULT_DIR}/, "
        f"or ${cache.ENV_DIR})",
    )


def _cmd_age(args: argparse.Namespace) -> int:
    policies = ["ffs", "realloc"] if args.policy == "both" else [args.policy]
    rows = []
    results = {}
    if getattr(args, "workload", None):
        from repro.aging.replay import age_file_system
        from repro.aging.workload import Workload

        with open(args.workload) as fp:
            workload = Workload.load(fp)
        workload.validate()
        preset = get_preset(args.preset)
        for policy in policies:
            results[policy] = age_file_system(
                workload, params=preset.params, policy=policy
            )
    else:
        for policy in policies:
            results[policy] = aged(args.preset, policy)
    days = results[policies[0]].timeline.days()
    step = max(1, len(days) // 20)
    for i in range(0, len(days), step):
        row = [str(days[i])]
        for policy in policies:
            row.append(f"{results[policy].timeline.samples[i].layout_score:.3f}")
        row.append(f"{results[policies[0]].timeline.samples[i].utilization:.2f}")
        rows.append(row)
    print(
        render_table(
            ["day"] + policies + ["util"], rows,
            title=f"Aging trajectory (preset {args.preset})",
        )
    )
    for policy in policies:
        r = results[policy]
        print(
            f"{policy}: final layout score {r.timeline.final_score():.3f}, "
            f"{r.creates} creates, {r.deletes} deletes, "
            f"{fmt_size(r.bytes_written)} written, "
            f"{r.skipped_no_space} ops skipped for space"
        )
    if getattr(args, "save_image", None):
        from repro.ffs.image import dump_filesystem

        for policy in policies:
            path = (
                args.save_image
                if len(policies) == 1
                else f"{args.save_image}.{policy}"
            )
            with open(path, "w") as fp:
                dump_filesystem(results[policy].fs, fp)
            print(f"saved {policy} image to {path}")
    return 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    from repro.errors import ConsistencyError, SimulationError
    from repro.ffs.image import load_filesystem

    if getattr(args, "repair", False):
        return _fsck_repair(args)
    try:
        with open(args.image) as fp:
            fs = load_filesystem(fp, verify=True)
    except (ConsistencyError, SimulationError) as exc:
        print(f"CORRUPT: {exc}")
        return 1
    print(
        f"clean: {len(fs.files())} files, "
        f"{len(fs.directories)} directories, "
        f"utilization {fs.utilization():.0%}, "
        f"policy {fs.policy.name}"
    )
    return 0


def _fsck_repair(args: argparse.Namespace) -> int:
    """``fsck --repair``: skeleton-load the image, repair, re-verify.

    The image format stores no allocation maps (loads rebuild them), so
    the repair runs with ``trust_maps=False`` — map drift is not a
    damage class an image can carry.
    """
    import json as json_mod

    from repro.fsck import repair_filesystem, skeleton_from_document

    with open(args.image) as fp:
        document = json_mod.load(fp)
    fs = skeleton_from_document(document)
    report = repair_filesystem(fs, trust_maps=False)
    if getattr(args, "as_json", False):
        from repro.obs.export import write_json

        write_json(sys.stdout, report.to_dict())
        print()
    else:
        print(report.render())
        print(
            f"after repair: {len(fs.files())} files, "
            f"{len(fs.directories)} directories, "
            f"utilization {fs.utilization():.0%}, "
            f"policy {fs.policy.name}"
        )
    if getattr(args, "save", None):
        from repro.ffs.image import dump_filesystem

        with open(args.save, "w") as fp:
            dump_filesystem(fs, fp)
        print(f"saved repaired image to {args.save}", file=sys.stderr)
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults.chaos import render_report, run_chaos

    policies = (
        ["ffs", "realloc"] if args.policy == "both" else [args.policy]
    )
    report = run_chaos(
        args.preset,
        policies=policies,
        crashes=args.crashes,
        seed=args.seed,
        jobs=max(1, args.jobs),
        max_write=args.max_write,
        backend=args.backend,
    )
    if getattr(args, "as_json", False):
        from repro.obs.export import write_json

        write_json(sys.stdout, report.to_dict())
        print()
    else:
        print(render_report(report))
    if getattr(args, "output", None):
        from repro.obs.export import write_json

        with open(args.output, "w") as fp:
            write_json(fp, report.to_dict())
        print(f"wrote chaos report to {args.output}", file=sys.stderr)
    return 0 if report.all_repairs_clean() else 1


def _cmd_workload(args: argparse.Namespace) -> int:
    art = artifacts(args.preset)
    workload = (
        art.reconstructed if args.which == "reconstructed" else art.ground_truth
    )
    with open(args.output, "w") as fp:
        fp.write(f"# aging workload: preset={args.preset} which={args.which}\n")
        workload.dump(fp)
    print(
        f"wrote {len(workload)} operations "
        f"({workload.bytes_written() / MB:.0f} MB of writes, "
        f"{workload.days()} days) to {args.output}"
    )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.name == "all":
        # Stream each block as its experiment completes (the suite takes
        # minutes at larger presets); stdout stays byte-identical to the
        # old batch rendering — and to the serial rendering when --jobs
        # fans the suite across workers — progress notes go to stderr.
        jobs = max(1, getattr(args, "jobs", 1))
        times = {}
        first = True
        for name, text, elapsed in iter_all_rendered(
            args.preset, jobs, args.backend
        ):
            if not first:
                print(flush=True)
            print(experiment_header(name, args.preset), flush=True)
            print(flush=True)
            print(text, flush=True)
            first = False
            times[name] = elapsed
            print(f"[obs] {name}: {elapsed:.1f}s", file=sys.stderr, flush=True)
        args._timings = dict(times)  # sealed into the --metrics manifest
        if getattr(args, "slowest", False):
            print(f"[obs] {slowest_summary(times)}", file=sys.stderr, flush=True)
        return 0
    result, elapsed = run_one_timed(args.name, args.preset, args.backend)
    args._timings = {args.name: elapsed}
    print(result.render())  # type: ignore[attr-defined]
    print(f"[obs] {args.name}: {elapsed:.1f}s", file=sys.stderr, flush=True)
    if args.csv:
        csv_text = getattr(result, "csv_text", None)
        if csv_text is None:
            print(f"note: {args.name} has no CSV series; --csv ignored")
        else:
            with open(args.csv, "w") as fp:
                fp.write(csv_text())
            print(f"wrote series to {args.csv}")
    return 0


def _cmd_freespace(args: argparse.Namespace) -> int:
    fs = aged(args.preset, args.policy).fs
    stats = free_space_stats(fs)
    if getattr(args, "json", False):
        from repro.obs.export import write_json

        write_json(
            sys.stdout,
            {
                "preset": args.preset,
                "policy": args.policy,
                "block_size": fs.params.block_size,
                "maxcontig": fs.params.maxcontig,
                "stats": stats.to_dict(),
                "run_length_histogram": [
                    [length, count]
                    for length, count in free_cluster_histogram(fs).items()
                ],
            },
        )
        return 0
    print(f"free-space fragmentation ({args.policy}, preset {args.preset}):")
    print(f"  free blocks:        {stats.free_blocks}")
    print(f"  free fragments:     {stats.free_frags}")
    print(f"  free runs:          {stats.n_runs}")
    print(f"  largest run:        {stats.largest_run} blocks "
          f"({fmt_size(stats.largest_run * fs.params.block_size)})")
    print(f"  mean run:           {stats.mean_run:.1f} blocks")
    print(f"  clusterable space:  {stats.clusterable_fraction:.0%} of free blocks "
          f"in runs >= maxcontig ({fs.params.maxcontig})")
    histogram = free_cluster_histogram(fs)
    rows = [(str(length), str(count)) for length, count in histogram.items()]
    print(render_table(["run length", "count"], rows[:30]))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from datetime import datetime, timezone

    from repro.obs.export import render_metrics
    from repro.obs.manifest import RunManifest

    with open(args.manifest) as fp:
        manifest = RunManifest.load(fp)
    started = datetime.fromtimestamp(
        manifest.started_at, tz=timezone.utc
    ).strftime("%Y-%m-%d %H:%M:%S UTC")
    wall = (
        f"{manifest.wall_seconds:.2f}s"
        if manifest.wall_seconds is not None
        else "unknown"
    )
    config = " ".join(
        f"{key}={value}"
        for key, value in manifest.config.items()
        if value is not None
    )
    env = manifest.environment
    print(f"run: repro-ffs {manifest.command} ({config})")
    print(
        f"  started {started}, wall time {wall}, "
        f"python {env.get('python', '?')} on {env.get('platform', '?')}"
    )
    print()
    disk = {
        name.split(".", 1)[1]: data["value"]
        for name, data in manifest.metrics.items()
        if name.startswith("disk.") and data["type"] == "counter"
    }
    if set(disk) >= {"reads", "writes", "busy_ms"}:
        print(render_disk_stats(disk, title="Disk model"))
        print()
    other = {
        name: data
        for name, data in manifest.metrics.items()
        if not (name.startswith("disk.") and data["type"] == "counter")
    }
    print(render_metrics(other))
    if manifest.timings:
        rows = [
            (name, f"{wall:.2f}")
            for name, wall in sorted(
                manifest.timings.items(), key=lambda kv: (-kv[1], kv[0])
            )
        ]
        print()
        print(render_table(
            ["experiment", "wall (s)"], rows, title="Experiment wall times",
        ))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    store = cache.store()
    if store is None:
        print("cache is disabled (--no-cache or REPRO_CACHE=off)")
        return 1
    if args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} entries from {store.root}")
        return 0
    entries = store.entries()
    if not entries:
        print(f"cache at {store.root}: empty")
        return 0
    rows = [
        (
            entry.path.name,
            fmt_size(entry.size_bytes),
            time.strftime("%Y-%m-%d %H:%M", time.localtime(entry.created_at)),
        )
        for entry in entries
    ]
    print(render_table(
        ["entry", "size", "created"], rows,
        title=f"cache at {store.root} ({len(entries)} entries, "
        f"{fmt_size(sum(e.size_bytes for e in entries))})",
    ))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report_html import report_from_files

    try:
        html_text = report_from_files(
            args.manifest,
            events_path=args.events,
            trace_path=args.trace,
            compare_manifest_path=args.compare,
            compare_events_path=args.compare_events,
            disk_trace_path=args.disk_trace,
            runs_dir=args.runs_dir,
        )
    except (OSError, ValueError) as exc:
        print(f"report: {exc}", file=sys.stderr)
        return 2
    with open(args.output, "w") as fp:
        fp.write(html_text)
    print(f"wrote report to {args.output}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis.placement import (
        SCHEMA as INSPECT_SCHEMA,
        inspect_filesystem,
        render_comparison,
        render_inspection,
    )

    if len(args.images) > 2:
        print(
            "inspect: at most two images can be compared", file=sys.stderr
        )
        return 2
    documents = []
    if args.images:
        from repro.ffs.image import load_filesystem

        for path in args.images:
            with open(path) as fp:
                fs = load_filesystem(fp, verify=True)
            documents.append(
                inspect_filesystem(
                    fs, label=Path(path).name, top_files=args.top
                )
            )
    else:
        policies = (
            ["ffs", "realloc"] if args.policy == "both" else [args.policy]
        )
        for policy in policies:
            documents.append(
                inspect_filesystem(
                    aged(args.preset, policy).fs,
                    label=policy,
                    top_files=args.top,
                )
            )
    if getattr(args, "as_json", False):
        from repro.obs.export import write_json

        write_json(
            sys.stdout,
            documents[0]
            if len(documents) == 1
            else {"schema": INSPECT_SCHEMA, "documents": documents},
        )
    else:
        for document in documents:
            print(render_inspection(document))
            print()
        if len(documents) == 2:
            print(render_comparison(documents[0], documents[1]))
    if getattr(args, "html", None):
        from repro.obs.report_html import build_inspect_report

        with open(args.html, "w") as fp:
            fp.write(build_inspect_report(documents))
        print(f"wrote inspection to {args.html}", file=sys.stderr)
    return 0


def _cmd_history(args: argparse.Namespace) -> int:
    from repro.obs.store import RunStore, filter_runs, render_history

    limit = getattr(args, "limit", None)
    if limit is not None and limit < 1:
        print("history: --limit must be at least 1", file=sys.stderr)
        return 2
    store = RunStore(getattr(args, "runs_dir", None))
    runs = filter_runs(
        store.runs(warn=True),
        command=getattr(args, "filter_command", None),
        policy=getattr(args, "filter_policy", None),
        limit=limit,
    )
    if getattr(args, "drift", False):
        from repro.obs.diff import detect_drift, render_drift

        # Trend lines read left to right; undo the listing's
        # newest-first order.
        document = detect_drift(list(reversed(runs)))
        if getattr(args, "as_json", False):
            from repro.obs.export import write_json

            write_json(sys.stdout, document)
        else:
            print(render_drift(document))
        return 0
    if getattr(args, "as_json", False):
        from repro.obs.export import write_json

        write_json(sys.stdout, runs)
        return 0
    print(render_history(runs))
    return 0


def _load_diff_side(
    ref: str,
    runs_dir: "str | None",
    events_path: "str | None",
    trace_path: "str | None",
    image_path: "str | None",
):
    """Resolve one ``diff`` operand into a :class:`RunArtifacts`.

    ``ref`` may be a file (a registry document or a ``--metrics``
    manifest — distinguished by schema) or a registry run id / unique
    id prefix resolved against ``--runs-dir``.
    """
    import json as json_mod
    from pathlib import Path

    from repro.errors import RunStoreError
    from repro.obs.diff import RunArtifacts
    from repro.obs.store import RunStore

    path = Path(ref)
    if path.is_file():
        try:
            with open(path) as fp:
                document = json_mod.load(fp)
        except json_mod.JSONDecodeError as exc:
            raise RunStoreError(f"{ref}: {exc}") from exc
        if not isinstance(document, dict):
            raise RunStoreError(f"{ref}: not a JSON object")
        schema = str(document.get("schema", ""))
        if schema.startswith("repro.obs.runstore/"):
            manifest = document.get("manifest")
            if not isinstance(manifest, dict):
                raise RunStoreError(f"{ref}: registry document "
                                    f"carries no manifest")
            summary = document.get("summary")
            side = RunArtifacts(
                label=str(document.get("id", path.name)),
                manifest=manifest,
                summary=summary if isinstance(summary, dict) else None,
            )
        elif schema.startswith("repro.obs.manifest/"):
            side = RunArtifacts(label=path.name, manifest=document)
        else:
            raise RunStoreError(
                f"{ref}: schema {schema!r} is neither a registry "
                f"document nor a run manifest"
            )
    else:
        document = RunStore(runs_dir).load_run(ref)
        manifest = document.get("manifest")
        if not isinstance(manifest, dict):
            raise RunStoreError(f"run {ref}: registry document "
                                f"carries no manifest")
        summary = document.get("summary")
        side = RunArtifacts(
            label=str(document.get("id", ref)),
            manifest=manifest,
            summary=summary if isinstance(summary, dict) else None,
        )
    from repro.obs.events import read_jsonl

    if events_path:
        with open(events_path) as fp:
            side.events = read_jsonl(fp)
    if trace_path:
        with open(trace_path) as fp:
            side.disk_trace = read_jsonl(fp)
    if image_path:
        from repro.analysis.placement import inspect_filesystem
        from repro.ffs.image import load_filesystem

        with open(image_path) as fp:
            fs = load_filesystem(fp, verify=True)
        side.placement = inspect_filesystem(
            fs, label=Path(image_path).name
        )
    return side


def _cmd_diff(args: argparse.Namespace) -> int:
    """``repro-ffs diff``: exit 0 on a rendered diff, 2 on unusable
    input.  The diff reports, it does not gate — regression *labels*
    are informational here and never change the exit code."""
    import json as json_mod

    from repro.errors import RunStoreError
    from repro.obs.diff import Classifier, diff_runs, render_diff

    rel = getattr(args, "rel_threshold", None)
    floor = getattr(args, "abs_floor", None)
    if (rel is not None and rel < 0) or (floor is not None and floor < 0):
        print(
            "diff: --rel-threshold and --abs-floor must be non-negative",
            file=sys.stderr,
        )
        return 2
    classifier = Classifier(
        rel_threshold=rel if rel is not None else Classifier().rel_threshold,
        abs_floor=floor if floor is not None else Classifier().abs_floor,
    )
    try:
        side_a = _load_diff_side(
            args.run_a, args.runs_dir,
            args.events_a, args.disk_trace_a, args.image_a,
        )
        side_b = _load_diff_side(
            args.run_b, args.runs_dir,
            args.events_b, args.disk_trace_b, args.image_b,
        )
    except (RunStoreError, ValueError, json_mod.JSONDecodeError) as exc:
        print(f"diff: {exc}", file=sys.stderr)
        return 2
    document = diff_runs(side_a, side_b, classifier=classifier)
    if getattr(args, "as_json", False):
        from repro.obs.export import write_json

        write_json(sys.stdout, document)
    else:
        print(render_diff(document))
    if getattr(args, "html", None):
        from repro.obs.report_html import build_diff_report

        with open(args.html, "w") as fp:
            fp.write(build_diff_report(document))
        print(f"wrote diff report to {args.html}", file=sys.stderr)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """`repro-ffs lint`: exit 0 clean, 1 findings, 2 usage error —
    the CLI-wide 0/1/2 contract of :func:`main`."""
    import json as json_mod
    from pathlib import Path

    from repro import lint as replint
    from repro.lint.baseline import DEFAULT_BASELINE
    from repro.lint.engine import collect_file_facts

    if args.list_rules:
        for rule in replint.all_rules():
            print(f"{rule.rule_id}  {rule.name:<24} {rule.summary}")
        return 0
    if args.explain:
        rule = replint.get_rule(args.explain)
        if rule is None:
            print(f"lint: unknown rule {args.explain!r}", file=sys.stderr)
            return 2
        print(f"{rule.rule_id} — {rule.name}\n")
        print(rule.explain())
        return 0

    rules = None
    if args.select:
        rules = []
        for rule_id in args.select.split(","):
            rule = replint.get_rule(rule_id.strip())
            if rule is None:
                print(f"lint: unknown rule {rule_id.strip()!r}", file=sys.stderr)
                return 2
            rules.append(rule)

    paths = [Path(p) for p in args.paths]
    baseline_path = Path(args.baseline) if args.baseline else Path(DEFAULT_BASELINE)
    baseline = None
    if not args.no_baseline and not args.update_baseline:
        try:
            baseline = replint.Baseline.load(baseline_path)
        except (ValueError, OSError) as exc:
            print(f"lint: {exc}", file=sys.stderr)
            return 2

    try:
        result = replint.lint_paths(
            paths,
            rules=rules,
            baseline=baseline,
            export_graph=args.graph_json is not None,
        )
    except FileNotFoundError as exc:
        print(f"lint: no such path: {exc}", file=sys.stderr)
        return 2

    if args.graph_json:
        graph_doc = result.graph_document or {}
        Path(args.graph_json).write_text(
            json_mod.dumps(graph_doc, indent=2) + "\n"
        )
        print(f"lint: wrote call graph to {args.graph_json}", file=sys.stderr)

    if args.update_baseline:
        sources, symbols = collect_file_facts(paths)
        new_baseline = replint.Baseline.from_findings(
            result.findings, sources, symbols
        )
        new_baseline.dump(baseline_path)
        print(
            f"lint: wrote {len(new_baseline)} grandfathered finding(s) "
            f"to {baseline_path}"
        )
        return 0

    if args.as_json:
        print(json_mod.dumps(result.to_dict(), indent=2))
    else:
        for finding in result.findings:
            print(finding.format())
        suppressed = result.pragma_suppressed + result.baseline_suppressed
        tail = f"{len(result.findings)} finding(s) in {result.files_checked} file(s)"
        if suppressed:
            tail += (
                f" ({result.pragma_suppressed} pragma-waived, "
                f"{result.baseline_suppressed} baselined)"
            )
        print(tail)
    return 0 if result.clean else 1


def _cmd_ablation(args: argparse.Namespace) -> int:
    from repro.experiments import ablations

    runners = {
        "maxcontig": ablations.run_maxcontig_sweep,
        "cluster-fit": ablations.run_cluster_fit_ablation,
        "trigger": ablations.run_trigger_ablation,
        "indirect": ablations.run_indirect_ablation,
        "fallback": ablations.run_fallback_ablation,
    }
    names = list(runners) if args.name == "all" else [args.name]
    for name in names:
        print(runners[name](args.preset).render())
        print()
    return 0


def _cmd_profiles(args: argparse.Namespace) -> int:
    from repro.experiments import profiles

    print(profiles.run(args.preset).render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
