"""The chaos harness: crash an aging replay, repair it, measure the cost.

``repro-ffs chaos`` answers the question the paper's clean-room aging
cannot: *what does a crash-and-repair cycle do to an aged layout?*  For
each sampled crash plan and each policy it runs the replay twice:

* **crashed** — the plan as sampled: the replay halts at the crash
  point with the plan's buffered-write damage applied, then
  :func:`repro.fsck.repair_filesystem` repairs the wreckage back to a
  ``check_filesystem``-clean state;
* **baseline** — the plan's :meth:`~repro.faults.plan.FaultPlan.inert`
  twin: the replay halts at the *identical* operation with zero damage,
  i.e. what a clean shutdown at that instant would leave.

Both sides then get the same measurements (aggregate layout score,
read throughput over the largest surviving files), so the reported
deltas isolate exactly the cost of the crash + repair, not of stopping
early.

Every case is a pure function of ``(preset, policy, plan, backend)``:
:func:`repro.parallel.fan_out` runs the cases inline or, with ``--jobs
N``, in worker processes, each in the same ``chaos.case<NN>.<policy>``
telemetry envelope; output and merged telemetry match a serial run's.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.bench.iomodel import FileIOPricer
from repro.errors import InvalidRequestError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, sample_plans

from repro import schemas, storage

#: Schema tag of the ``--json`` report.
REPORT_SCHEMA = schemas.CHAOS

#: How many of the largest surviving files the throughput probe reads.
THROUGHPUT_FILES = 10


@dataclass(frozen=True)
class ChaosOutcome:
    """One (policy, crash plan) case: crashed-then-repaired vs baseline."""

    policy: str
    plan: Dict[str, Any]
    #: Whether the crash point actually fired during the replay (a plan
    #: whose write budget exceeds the whole workload never fires).
    fired: bool
    crash: Optional[Dict[str, int]]
    fsck: Optional[Dict[str, Any]]
    score_repaired: Optional[float]
    score_baseline: Optional[float]
    throughput_repaired: float
    throughput_baseline: float
    live_files_repaired: int
    live_files_baseline: int
    ops_applied: int

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class ChaosReport:
    """Everything one ``repro-ffs chaos`` invocation established."""

    preset: str
    seed: int
    outcomes: Tuple[ChaosOutcome, ...]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": REPORT_SCHEMA,
            "preset": self.preset,
            "seed": self.seed,
            "cases": [o.to_dict() for o in self.outcomes],
            "all_repairs_clean": self.all_repairs_clean(),
        }

    def all_repairs_clean(self) -> bool:
        """True when every fired crash was repaired to a verified-clean
        file system (the repair itself re-runs ``check_filesystem``, so
        an unclean repair would have raised instead)."""
        return all(o.fsck is not None for o in self.outcomes if o.fired)


def run_case(
    preset_name: str,
    policy: str,
    plan: FaultPlan,
    backend: str = storage.DEFAULT_BACKEND,
) -> ChaosOutcome:
    """Run one crash-vs-baseline pair; pure in its arguments."""
    from repro.experiments import config
    from repro.aging.replay import AgingReplayer
    from repro.ffs.check import check_filesystem
    from repro.ffs.filesystem import FileSystem
    from repro.fsck import repair_filesystem

    art = config.artifacts(preset_name)
    params = config.get_preset(preset_name).params

    fs = FileSystem(params=params, policy=policy)
    crashed = AgingReplayer(
        fs, label=f"chaos-{policy}", faults=FaultInjector(plan)
    ).replay(art.reconstructed)
    if not crashed.crashed:
        return ChaosOutcome(
            policy=policy,
            plan=plan.to_payload(),
            fired=False,
            crash=None,
            fsck=None,
            score_repaired=None,
            score_baseline=None,
            throughput_repaired=0.0,
            throughput_baseline=0.0,
            live_files_repaired=len(fs.files()),
            live_files_baseline=len(fs.files()),
            ops_applied=crashed.ops_applied,
        )
    fsck_report = repair_filesystem(fs)  # verifies check_filesystem

    base_fs = FileSystem(params=params, policy=policy)
    AgingReplayer(
        base_fs,
        label=f"chaos-{policy}-baseline",
        faults=FaultInjector(plan.inert()),
    ).replay(art.reconstructed)
    check_filesystem(base_fs)  # an inert crash must leave zero damage

    return ChaosOutcome(
        policy=policy,
        plan=plan.to_payload(),
        fired=True,
        crash=crashed.crash.to_dict() if crashed.crash is not None else None,
        fsck=fsck_report.to_dict(),
        score_repaired=_score(fs),
        score_baseline=_score(base_fs),
        throughput_repaired=_read_throughput(fs, backend),
        throughput_baseline=_read_throughput(base_fs, backend),
        live_files_repaired=len(fs.files()),
        live_files_baseline=len(base_fs.files()),
        ops_applied=crashed.ops_applied,
    )


def _score(fs) -> Optional[float]:
    from repro.analysis.layout import score_file_set

    return score_file_set(fs.files())


def _read_throughput(
    fs, backend: str, n_files: int = THROUGHPUT_FILES
) -> float:
    """Bytes/second reading the ``n_files`` largest files, inode order.

    The probe is deliberately tiny — it exists to show whether the
    repair left the surviving layout readable at a comparable rate, not
    to re-run the paper's benchmarks.
    """
    largest = sorted(fs.files(), key=lambda i: (-i.size, i.ino))[:n_files]
    inodes = sorted(largest, key=lambda i: i.ino)
    if not inodes:
        return 0.0
    disk = storage.make_storage(backend=backend)
    pricer = FileIOPricer(fs, disk)
    total = 0
    for inode in inodes:
        pricer.read_inode(inode.ino)
        pricer.read_file_data(inode)
        total += inode.size
    if disk.now_ms <= 0.0:
        return 0.0
    return total / (disk.now_ms / 1000.0)


# ----------------------------------------------------------------------
# The harness
# ----------------------------------------------------------------------


def _timed_case(label: str, preset_name: str, *case: Any) -> ChaosOutcome:
    """:func:`run_case` in its ``label`` telemetry envelope (module level,
    so a worker can run it by name)."""
    from repro.experiments.runner import timed_call

    outcome, _wall = timed_call(
        label, lambda: run_case(preset_name, *case), preset=preset_name
    )
    return outcome  # type: ignore[return-value]


def run_chaos(
    preset_name: str = "tiny",
    policies: Sequence[str] = ("ffs", "realloc"),
    crashes: int = 3,
    seed: int = 4242,
    jobs: int = 1,
    max_write: int = 400,
    backend: str = storage.DEFAULT_BACKEND,
) -> ChaosReport:
    """Crash-and-repair a seeded grid of ``crashes`` plans per policy.

    Case order — and therefore rendered output — is (policy, plan
    index), regardless of ``jobs``: the fan-out yields results in
    submission order, so stdout is byte-identical to a serial run.
    """
    if jobs < 1:
        raise InvalidRequestError(f"jobs must be >= 1 (got {jobs})")
    from repro.experiments import config
    from repro.parallel import fan_out

    preset = config.get_preset(preset_name)
    plans = sample_plans(seed, days=preset.days, count=crashes, max_write=max_write)
    cases = [(policy, plan) for policy in policies for plan in plans]
    labels = [f"chaos.case{i:02d}.{policy}" for i, (policy, _) in enumerate(cases)]
    outcomes = fan_out(
        [[(label, _timed_case, (label, preset_name, policy, plan, backend))
          for label, (policy, plan) in zip(labels, cases)]],
        jobs,
    )
    return ChaosReport(preset=preset_name, seed=seed, outcomes=tuple(outcomes))  # type: ignore[arg-type]


def render_report(report: ChaosReport) -> str:
    """Deterministic human-readable rendering of a chaos run."""
    lines = [
        f"chaos: preset={report.preset} seed={report.seed} "
        f"cases={len(report.outcomes)}"
    ]
    for outcome in report.outcomes:
        crash_spec = outcome.plan.get("crash") or {}
        where = (
            f"day {crash_spec.get('day')} "
            f"write {crash_spec.get('after_block_writes')}"
        )
        if not outcome.fired:
            lines.append(
                f"  {outcome.policy:8s} {where}: crash point never fired "
                f"({outcome.ops_applied} ops replayed)"
            )
            continue
        crash = outcome.crash or {}
        fsck = outcome.fsck or {}
        repairs = sum(
            int(fsck.get(key, 0))
            for key in (
                "doubly_allocated",
                "truncated_files",
                "sizeless_files",
                "dead_dirents",
                "duplicate_dirents",
                "orphaned_inodes",
                "dropped_inodes",
            )
        )
        lines.append(
            f"  {outcome.policy:8s} {where}: "
            f"{crash.get('dropped', 0)} dropped, {crash.get('torn', 0)} torn "
            f"of {crash.get('buffered_ops', 0)} buffered; "
            f"{repairs} repairs, "
            f"{fsck.get('orphaned_frags', 0)} orphaned frags; "
            f"score {_fmt_score(outcome.score_baseline)} -> "
            f"{_fmt_score(outcome.score_repaired)}; "
            f"read {_fmt_delta(outcome.throughput_baseline, outcome.throughput_repaired)}"
        )
    lines.append(
        "all fired crashes repaired to fsck-clean: "
        + ("yes" if report.all_repairs_clean() else "NO")
    )
    return "\n".join(lines)


def _fmt_score(score: Optional[float]) -> str:
    return "n/a" if score is None else f"{score:.4f}"


def _fmt_delta(baseline: float, repaired: float) -> str:
    if baseline <= 0.0:
        return "n/a"
    return f"{(repaired - baseline) / baseline:+.1%} vs clean halt"
