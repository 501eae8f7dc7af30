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
* ``stats``      — render a run file's manifest and metrics as
  paper-style tables.
* ``cache``      — inspect (``ls``) or drop (``clear``) the persistent
  artifact cache that makes warm reruns fast.
* ``report``     — render a run file (manifest, spans, events, disk
  rows, metrics) as one self-contained offline HTML page.
* ``inspect``    — block-placement maps and fragmentation profile of a
  saved image, or of a file system aged in place.
* ``fsck``       — verify a saved image's invariants, or ``--repair`` a
  damaged one back to a verified-clean state (see :mod:`repro.fsck`).
* ``chaos``      — crash aging replays at seeded points, repair the
  wreckage with fsck, and report the layout/throughput cost against a
  clean halt at the same instant (see :mod:`repro.faults`).
* ``diff``       — structurally compare two runs (run files or
  registry ids): config, metrics, timelines, disk rows, placement —
  every delta classified noise/notable/regression by the shared
  significance rules in :mod:`repro.obs.diff`.
* ``history``    — list the run registry (``--record``), filtered by
  ``--command``/``--policy``/``--limit``; ``--drift`` fits per-policy
  trend lines over the archived summaries and flags metric drift.
* ``lint``       — run replint, the repo-aware static-analysis pass.

Each flag shared by several subcommands is declared once, its group on
a parent parser that the subcommands name:

* preset: ``--preset tiny|small|paper`` (default small), on the
  subcommands that age or generate (``age``, ``workload``,
  ``experiment``, ``freespace``, ``ablation``, ``profiles``,
  ``inspect``, ``chaos``);
* cache: ``--no-cache`` / ``--cache-dir DIR`` (see :mod:`repro.cache`),
  on those and ``cache``;
* telemetry: ``--run FILE`` (write the run file: the manifest header,
  the span and event rows, the metrics row; see
  :mod:`repro.obs.runfile`), ``--disk-rows`` (add one row per simulated
  disk request), ``--profile`` (per-phase cProfile attribution) and
  ``--record`` (keep the run file in the run registry), on every
  subcommand but ``report``, ``history``, ``diff`` and ``lint``;
  telemetry is off, a no-op, unless ``--run``, ``--profile`` or
  ``--record`` is given;
* runs-dir: ``--runs-dir DIR``, the run registry, wherever one is
  written or read;
* backend and jobs: ``--backend disk|ssd`` (price I/O on the rotating
  disk or the FTL-backed flash of :mod:`repro.ssd`) and ``--jobs N``
  (fan work across worker processes; output byte-identical to serial),
  on ``experiment`` and ``chaos``;
* json: ``--json``, on each subcommand that can print JSON.

Wall-clock timing of the reproduction itself is not a subcommand: the
repository benchmark lives in ``perfbench/`` (see its README).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from typing import List, Optional

from repro import cache, obs, storage
from repro.analysis.freespace import free_cluster_histogram, free_space_stats
from repro.analysis.report import render_disk_stats, render_table
from repro.errors import InvalidRequestError
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
    try:
        if getattr(args, "jobs", 1) < 1:
            raise InvalidRequestError(f"--jobs must be at least 1 (got {args.jobs})")
        if getattr(args, "disk_rows", False) and not (args.run or args.record):
            raise InvalidRequestError("--disk-rows needs --run FILE or --record")
        if not any(getattr(args, flag, None) for flag in _TELEMETRY_FLAGS):
            return args.handler(args)
        return _run_with_telemetry(args)
    except (SimulationError, OSError) as exc:
        print(f"repro-ffs {args.command}: {exc}", file=sys.stderr)
        return exit_code_for(exc)


def _run_with_telemetry(args: argparse.Namespace) -> int:
    """Run one subcommand under an active telemetry session.

    The whole invocation becomes the root span; afterwards the metrics
    snapshot is sealed into the run's manifest, the per-phase profile is
    folded into it and printed to stderr (``--profile``), and the run
    file is written (``--run``) and kept in the registry (``--record``).
    """
    from repro.obs.runfile import Run, write_run

    capture = obs.Capture(disktrace=args.disk_rows, profile=args.profile)
    with capture.open() as (registry, tracer):
        manifest = obs.RunManifest(
            command=args.command, config=_manifest_config(args)
        )
        start = time.perf_counter()
        with tracer.span(f"cli.{args.command}", preset=getattr(args, "preset", None)):
            code = args.handler(args)
        manifest.finish(time.perf_counter() - start, registry.snapshot())
        manifest.timings = dict(getattr(args, "_timings", {}) or {})
        if tracer.profiler is not None:
            from repro.obs.profiling import render_profile

            manifest.profile = tracer.profiler.report()
            print(render_profile(manifest.profile), file=sys.stderr)
        logs = (tracer, obs.events_or_none(), obs.disktrace_or_none())
        run = Run(manifest)
        if args.record:
            from repro.obs.store import RunStore

            store = RunStore(args.runs_dir)
            run = store.record(manifest, logs)
            print(f"[obs] recorded run {run.id} in {store.root}", file=sys.stderr)
        if args.run:
            with open(args.run, "w") as fp:
                write_run(fp, run, logs)
            counts = ", ".join(
                f"{len(log)} {noun}"
                + (f" ({log.dropped} dropped)" if log.dropped else "")
                for log, noun in zip(logs, ("spans", "events", "disk requests"))
                if log is not None
            )
            print(f"[obs] wrote run file {args.run} ({counts})", file=sys.stderr)
    return code


def _manifest_config(args: argparse.Namespace) -> dict:
    """The invocation's parameters, minus plumbing, for the manifest."""
    return {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("handler", "command", "runs_dir", "disk_rows",
                       *_TELEMETRY_FLAGS)
        and not key.startswith("_")
        and not callable(value)
    }


#: The telemetry parent's flags that ask for a session (``--disk-rows``
#: and ``--runs-dir`` only shape what they write): ``main`` opens a
#: session when any is set, and none joins the manifest config.
_TELEMETRY_FLAGS = ("run", "profile", "record")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-ffs",
        description=(
            "Reproduction of Smith & Seltzer, 'A Comparison of FFS Disk "
            "Allocation Policies' (USENIX 1996)"
        ),
    )
    sub = parser.add_subparsers(dest="command")

    def parent() -> argparse.ArgumentParser:
        return argparse.ArgumentParser(add_help=False)

    preset = parent()
    preset.add_argument(
        "--preset", choices=sorted(PRESETS), default="small",
        help="scale preset (default: small)",
    )
    telemetry = parent()
    telemetry.add_argument(
        "--run", metavar="FILE", default=None,
        help="capture telemetry and write the run file: manifest header, "
        "span and event rows, metrics (read it with `repro-ffs report`, "
        "`diff` or `stats`)",
    )
    telemetry.add_argument(
        "--disk-rows", action="store_true",
        help="also write one row per simulated disk request into the run "
        "file",
    )
    telemetry.add_argument(
        "--profile", action="store_true",
        help="profile each phase with cProfile; fold the top offenders "
        "into the run file's header and print them to stderr",
    )
    telemetry.add_argument(
        "--record", action="store_true",
        help="capture telemetry and keep the run file, stamped with a run "
        "id and summary metrics, in the run registry "
        "(list it with `repro-ffs history`)",
    )
    runs_dir = parent()
    runs_dir.add_argument(
        "--runs-dir", metavar="DIR", default=None,
        help="run registry location (default: .repro/runs/)",
    )
    caching = parent()
    caching.add_argument(
        "--no-cache", action="store_true",
        help="do not read or write the persistent artifact cache",
    )
    caching.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help=f"artifact cache location (default: {cache.DEFAULT_DIR}/, "
        f"or ${cache.ENV_DIR})",
    )
    backend = parent()
    backend.add_argument(
        "--backend", choices=list(storage.BACKENDS),
        default=storage.DEFAULT_BACKEND,
        help="storage substrate the run prices I/O on: the Table 1 "
        "rotating disk or the FTL-backed flash device (default: "
        f"{storage.DEFAULT_BACKEND})",
    )
    jobs = parent()
    jobs.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run across N worker processes (default: 1, serial); "
        "output is byte-identical to serial",
    )
    as_json = parent()
    as_json.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the result as JSON on stdout instead of text",
    )
    simulates = [preset, telemetry, runs_dir, caching]

    def add_policy(
        parser: argparse.ArgumentParser, default: str, both: bool = True
    ) -> None:
        parser.add_argument(
            "--policy", default=default,
            choices=["ffs", "realloc", "both"] if both else ["ffs", "realloc"],
            help=f"allocation policy (default: {default})",
        )

    p_age = sub.add_parser(
        "age", parents=simulates,
        help="age a file system and print the trajectory",
    )
    add_policy(p_age, "both")
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
        "fsck", parents=[telemetry, runs_dir, as_json],
        help="verify (or repair) a saved file-system image",
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
    p_fsck.set_defaults(handler=_cmd_fsck)

    p_chaos = sub.add_parser(
        "chaos", parents=[*simulates, backend, jobs, as_json],
        help="crash aging replays at sampled points, fsck the wreckage, "
        "and compare against clean halts",
    )
    add_policy(p_chaos, "both")
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
        "--output", metavar="FILE", default=None,
        help="also write the JSON report to FILE",
    )
    p_chaos.set_defaults(handler=_cmd_chaos)

    p_wl = sub.add_parser(
        "workload", parents=simulates,
        help="generate and save the aging workload",
    )
    p_wl.add_argument("output", help="path to write the workload file")
    p_wl.add_argument(
        "--which", choices=["reconstructed", "ground-truth"],
        default="reconstructed", help="which workload to save",
    )
    p_wl.set_defaults(handler=_cmd_workload)

    p_exp = sub.add_parser(
        "experiment", parents=[*simulates, backend, jobs],
        help="run a paper experiment",
    )
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
        "--slowest", action="store_true",
        help="after `all`, print the slowest experiments to stderr",
    )
    p_exp.set_defaults(handler=_cmd_experiment)

    p_free = sub.add_parser(
        "freespace", parents=[*simulates, as_json],
        help="free-space fragmentation of an aged file system",
    )
    add_policy(p_free, "ffs", both=False)
    p_free.set_defaults(handler=_cmd_freespace)

    p_stats = sub.add_parser(
        "stats", parents=[telemetry, runs_dir],
        help="render a run file's metrics as tables",
    )
    p_stats.add_argument(
        "run_file", metavar="RUN", help="run file from a --run capture"
    )
    p_stats.set_defaults(handler=_cmd_stats)

    p_abl = sub.add_parser(
        "ablation", parents=simulates,
        help="run a design-choice ablation study",
    )
    p_abl.add_argument(
        "name",
        choices=["maxcontig", "cluster-fit", "trigger", "indirect",
                 "fallback", "all"],
        help="which design choice to ablate",
    )
    p_abl.set_defaults(handler=_cmd_ablation)

    p_prof = sub.add_parser(
        "profiles", parents=simulates,
        help="compare aging under different usage-pattern workloads",
    )
    p_prof.set_defaults(handler=_cmd_profiles)

    p_cache = sub.add_parser(
        "cache", parents=[telemetry, runs_dir, caching],
        help="inspect or clear the persistent artifact cache",
    )
    p_cache.add_argument(
        "action", choices=["ls", "clear"],
        help="ls: list entries; clear: remove them all",
    )
    p_cache.set_defaults(handler=_cmd_cache)

    p_report = sub.add_parser(
        "report", parents=[runs_dir],
        help="render a run file as one offline HTML page",
    )
    p_report.add_argument(
        "run_file", metavar="RUN", help="run file from a --run capture"
    )
    p_report.add_argument(
        "--compare", metavar="RUN", default=None,
        help="second run file to overlay (e.g. the other policy)",
    )
    p_report.add_argument(
        "--output", metavar="FILE", default="run-report.html",
        help="HTML output path (default: run-report.html)",
    )
    p_report.set_defaults(handler=_cmd_report)

    p_insp = sub.add_parser(
        "inspect", parents=[*simulates, as_json],
        help="block-placement maps and fragmentation profile of a saved "
        "image or a freshly aged file system",
    )
    p_insp.add_argument(
        "images", nargs="*", metavar="IMAGE",
        help="saved image(s) from `age --save-image` (none: age the "
        "preset in place; two: compare them)",
    )
    add_policy(p_insp, "ffs")
    p_insp.add_argument(
        "--top", type=int, default=15, metavar="N",
        help="largest files to list (default: 15)",
    )
    p_insp.add_argument(
        "--html", metavar="FILE", default=None,
        help="also render the inspection as a self-contained HTML page",
    )
    p_insp.set_defaults(handler=_cmd_inspect)

    p_hist = sub.add_parser(
        "history", parents=[runs_dir, as_json],
        help="list the run registry recorded by --record",
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
    p_hist.set_defaults(handler=_cmd_history)

    p_diff = sub.add_parser(
        "diff", parents=[runs_dir, as_json],
        help="structurally compare two recorded runs and classify "
        "every delta noise/notable/regression",
    )
    p_diff.add_argument(
        "run_a", metavar="RUN_A",
        help="baseline side: a run file, or a registry run id (or unique "
        "prefix)",
    )
    p_diff.add_argument(
        "run_b", metavar="RUN_B",
        help="comparison side, same forms as RUN_A",
    )
    for side in "ab":
        p_diff.add_argument(
            f"--image-{side}", metavar="FILE", default=None,
            help=f"run {side.upper()}'s saved image (age --save-image), "
            "for placement; --image-a and --image-b go together",
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
        "--html", metavar="FILE", default=None,
        help="also render a self-contained side-by-side HTML report",
    )
    p_diff.set_defaults(handler=_cmd_diff)

    p_lint = sub.add_parser(
        "lint", parents=[as_json],
        help="run replint, the repo-aware static-analysis pass",
    )
    p_lint.add_argument(
        "paths", nargs="*", default=["src"], metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    p_lint.add_argument(
        "--select", metavar="RULES", default=None,
        help="comma-separated rule ids to run (default: all)",
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
    p_lint.set_defaults(handler=_cmd_lint)
    return parser


def _policies(policy: str) -> List[str]:
    """A ``--policy`` value as the policies it names."""
    return ["ffs", "realloc"] if policy == "both" else [policy]


def _cmd_age(args: argparse.Namespace) -> int:
    policies = _policies(args.policy)
    rows = []
    results = {}
    if args.workload:
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
    print(render_table(
        ["day"] + policies + ["util"], rows,
        title=f"Aging trajectory (preset {args.preset})",
    ))
    for policy in policies:
        r = results[policy]
        print(
            f"{policy}: final layout score {r.timeline.final_score():.3f}, "
            f"{r.creates} creates, {r.deletes} deletes, "
            f"{fmt_size(r.bytes_written)} written, "
            f"{r.skipped_no_space} ops skipped for space"
        )
    if args.save_image:
        from repro.ffs.image import dump_filesystem

        for policy in policies:
            path = args.save_image
            if len(policies) > 1:
                path += f".{policy}"
            with open(path, "w") as fp:
                dump_filesystem(results[policy].fs, fp)
            print(f"saved {policy} image to {path}")
    return 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    from repro.errors import MalformedInputError, SimulationError
    from repro.ffs.image import load_filesystem

    if args.repair:
        return _fsck_repair(args)
    try:
        with open(args.image) as fp:
            fs = load_filesystem(fp, verify=True)
    except MalformedInputError:
        raise  # not an image at all: a usage error, not corruption
    except SimulationError as exc:
        print(f"CORRUPT: {exc}")
        return 1
    print(f"clean: {_fs_summary(fs)}")
    return 0


def _fs_summary(fs) -> str:
    return (
        f"{len(fs.files())} files, {len(fs.directories)} directories, "
        f"utilization {fs.utilization():.0%}, policy {fs.policy.name}"
    )


def _fsck_repair(args: argparse.Namespace) -> int:
    """``fsck --repair``: skeleton-load the image, repair, re-verify.

    The image format stores no allocation maps (loads rebuild them), so
    the repair runs with ``trust_maps=False`` — map drift is not a
    damage class an image can carry.
    """
    from repro.ffs.image import read_document, skeleton_from_document
    from repro.fsck import repair_filesystem

    with open(args.image) as fp:
        fs = skeleton_from_document(read_document(fp))
    report = repair_filesystem(fs, trust_maps=False)
    if args.as_json:
        from repro.obs.export import write_json

        write_json(sys.stdout, report.to_dict())
        print()
    else:
        print(report.render())
        print(f"after repair: {_fs_summary(fs)}")
    if args.save:
        from repro.ffs.image import dump_filesystem

        with open(args.save, "w") as fp:
            dump_filesystem(fs, fp)
        print(f"saved repaired image to {args.save}", file=sys.stderr)
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults.chaos import render_report, run_chaos

    report = run_chaos(
        args.preset,
        policies=_policies(args.policy),
        crashes=args.crashes,
        seed=args.seed,
        jobs=args.jobs,
        max_write=args.max_write,
        backend=args.backend,
    )
    if args.as_json:
        from repro.obs.export import write_json

        write_json(sys.stdout, report.to_dict())
        print()
    else:
        print(render_report(report))
    if args.output:
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
        times = {}
        for name, text, elapsed in iter_all_rendered(
            args.preset, args.jobs, args.backend
        ):
            blank = "\n" if times else ""
            header = experiment_header(name, args.preset)
            print(f"{blank}{header}\n\n{text}", flush=True)
            times[name] = elapsed
            print(f"[obs] {name}: {elapsed:.1f}s", file=sys.stderr, flush=True)
        args._timings = dict(times)  # sealed into the run file's header
        if args.slowest:
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
    if args.as_json:
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
    from repro.obs.runfile import load_run

    manifest = load_run(args.run_file).manifest
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

    html_text = report_from_files(args.run_file, args.compare, args.runs_dir)
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
        raise InvalidRequestError("at most two images can be compared")
    if args.top < 0:
        raise InvalidRequestError(f"--top must be at least 0 (got {args.top})")
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
        for policy in _policies(args.policy):
            documents.append(
                inspect_filesystem(
                    aged(args.preset, policy).fs,
                    label=policy,
                    top_files=args.top,
                )
            )
    if args.as_json:
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
    if args.html:
        from repro.obs.report_html import build_inspect_report

        with open(args.html, "w") as fp:
            fp.write(build_inspect_report(documents))
        print(f"wrote inspection to {args.html}", file=sys.stderr)
    return 0


def _cmd_history(args: argparse.Namespace) -> int:
    from repro.obs.export import write_json
    from repro.obs.store import RunStore, filter_runs, render_history

    if args.limit is not None and args.limit < 1:
        raise InvalidRequestError("--limit must be at least 1")
    runs = filter_runs(
        RunStore(args.runs_dir).runs(warn=True),
        command=args.filter_command,
        policy=args.filter_policy,
        limit=args.limit,
    )
    if args.drift:
        from repro.obs.diff import detect_drift, render_drift

        # Trend lines read left to right; undo the listing's
        # newest-first order.
        document = detect_drift(list(reversed(runs)))
        if args.as_json:
            write_json(sys.stdout, document)
        else:
            print(render_drift(document))
    elif args.as_json:
        write_json(sys.stdout, [run.header() for run in runs])
    else:
        print(render_history(runs))
    return 0


def _load_diff_side(args: argparse.Namespace, side: str):
    """Resolve ``diff``'s ``side`` (``"a"`` or ``"b"``): its operand and
    its ``--image-`` file, into a :class:`RunArtifacts`.

    The operand is a run file, or a registry run id / unique id prefix
    under ``--runs-dir``; both go through the run-file loader.  A
    recorded run is labelled by its id, any other file by its name.
    """
    from pathlib import Path

    from repro.obs.diff import RunArtifacts
    from repro.obs.runfile import load_run
    from repro.obs.store import RunStore

    ref, image_path = getattr(args, f"run_{side}"), getattr(args, f"image_{side}")
    path = Path(ref)
    run = (
        load_run(path) if path.is_file()
        else RunStore(args.runs_dir).load_run(ref)
    )
    artifacts = RunArtifacts(label=run.id or path.name, run=run)
    if image_path:
        from repro.analysis.placement import inspect_filesystem
        from repro.ffs.image import load_filesystem

        with open(image_path) as fp:
            fs = load_filesystem(fp, verify=True)
        artifacts.placement = inspect_filesystem(
            fs, label=Path(image_path).name
        )
    return artifacts


def _cmd_diff(args: argparse.Namespace) -> int:
    """``repro-ffs diff``: exit 0 on a rendered diff, 2 on unusable
    input.  The diff reports, it does not gate — regression *labels*
    are informational here and never change the exit code."""
    from repro.obs.diff import Classifier, diff_runs, render_diff

    if (args.image_a is None) != (args.image_b is None):
        raise InvalidRequestError("--image-a and --image-b go together")
    rel, floor = args.rel_threshold, args.abs_floor
    if any(v is not None and not 0 <= v < math.inf for v in (rel, floor)):
        raise InvalidRequestError(
            "--rel-threshold and --abs-floor must be finite and non-negative"
        )
    classifier = Classifier(
        rel_threshold=rel if rel is not None else Classifier().rel_threshold,
        abs_floor=floor if floor is not None else Classifier().abs_floor,
    )
    document = diff_runs(
        _load_diff_side(args, "a"), _load_diff_side(args, "b"),
        classifier=classifier,
    )
    if args.as_json:
        from repro.obs.export import write_json

        write_json(sys.stdout, document)
    else:
        print(render_diff(document))
    if args.html:
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

    if args.list_rules:
        for rule in replint.all_rules():
            print(f"{rule.rule_id}  {rule.name:<24} {rule.summary}")
        return 0
    if args.explain:
        rule = replint.get_rule(args.explain)
        if rule is None:
            raise InvalidRequestError(f"unknown rule {args.explain!r}")
        print(f"{rule.rule_id} — {rule.name}\n")
        print(rule.explain())
        return 0

    rules = None
    if args.select:
        rules = []
        # dict.fromkeys: a repeated id runs its rule once, in first order.
        for rule_id in dict.fromkeys(r.strip() for r in args.select.split(",")):
            rule = replint.get_rule(rule_id)
            if rule is None:
                raise InvalidRequestError(f"unknown rule {rule_id!r}")
            rules.append(rule)

    result = replint.lint_paths(
        [Path(p) for p in args.paths],
        rules=rules,
        export_graph=args.graph_json is not None,
    )

    if args.graph_json:
        graph_doc = result.graph_document or {}
        Path(args.graph_json).write_text(
            json_mod.dumps(graph_doc, indent=2) + "\n"
        )
        print(f"lint: wrote call graph to {args.graph_json}", file=sys.stderr)

    if args.as_json:
        print(json_mod.dumps(result.to_dict(), indent=2))
    else:
        for finding in result.findings:
            print(finding.format())
        tail = f"{len(result.findings)} finding(s) in {result.files_checked} file(s)"
        if result.pragma_suppressed:
            tail += f" ({result.pragma_suppressed} pragma-waived)"
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
