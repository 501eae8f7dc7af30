"""The repository benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload suite-cold-small --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table

Each measurement is one fresh process (``workload.py``), run one at a
time, so set-up and peak memory are the process's own.  ``--trace 0``
keeps starting processes until ``--seconds`` have passed and reports
each end-to-end metric as the median of its processes' values;
``--trace 1`` runs one untraced and one traced process and reports the
per-layer metrics plus the tracing overhead.
The metric names and units come from BENCHMARK.json.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Workload name -> the ``workload.py`` kind its measured processes run.
WORKLOADS = {
    "suite-cold-small": "cold",
    "suite-warm-small": "warm",
    "age-paper": "paper",
}
#: Per-layer metrics that must read 0 because the workload bypasses the
#: layer; a non-zero value means the workload is not what its name says.
PREDICTED_ZERO = {
    "suite-cold-small": (),
    "suite-warm-small": ("aging.replay.calls", "cache.save.calls"),
    "age-paper": (
        "cache.load.calls", "cache.save.calls", "lfs.age.calls",
        "disk.access.calls", "disk.transfer_extents.calls",
        "disk.synchronous_metadata_write.calls",
        "bench.sequential.calls", "bench.hotfiles.calls",
        "experiments.aged_fs_copy.calls",
    ),
}
#: ``setup_s`` is taken over at least this many process launches.
MIN_SETUPS = 11
#: Every run must end within this many seconds of its start.
RUN_DEADLINE_S = 175.0


class BenchError(Exception):
    """The benchmark could not produce a valid measurement."""


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1996, help="default: the preset seed")
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = _load_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        reports = {name: run_workload(name, args, spec) for name in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for name, report in reports.items():
        _print_report(name, report, args.trace)
    attempted = sum(r["attempted"] for r in reports.values())
    failed = sum(r["failed"] for r in reports.values())
    if len(reports) == 1:
        metrics = reports[args.workload]["metrics"]
    else:
        metrics = {
            f"{name}/{metric}": value
            for name, report in reports.items()
            for metric, value in report["metrics"].items()
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _load_spec() -> dict:
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchError(f"no program source at {ROOT / 'src' / 'repro'}")
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from None


def run_workload(name: str, args: argparse.Namespace, spec: dict) -> dict:
    """Measure one workload in a scratch directory inside the checkout."""
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runner = _Runner(WORKLOADS[name], args.seed, work)
        runner.prime()
        if args.trace:
            return _traced(name, runner, spec)
        return _untraced(runner, args.seconds, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)


class _Runner:
    """Starts ``workload.py`` processes for one workload, one at a time."""

    def __init__(self, kind: str, seed: int, work: Path) -> None:
        self.kind = kind
        self.seed = seed
        self.work = work
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self._n = 0
        self._primed: Optional[Path] = None
        # The benchmark picks each run's cache itself; a cache switch or
        # directory inherited from the environment would mislabel it.
        self._env = {
            k: v for k, v in os.environ.items() if not k.startswith("REPRO_CACHE")
        }

    def prime(self) -> None:
        """Fill the cache the warm processes start from (untimed)."""
        if self.kind == "warm":
            self._primed = self.work / "primed"
            self._count(self._launch("cold", self._primed))

    def measure(self, trace: bool = False) -> dict:
        """One measured process, with a cache directory of its own."""
        cache_dir = None
        if self.kind != "paper":
            cache_dir = self.work / f"cache-{self._n}"
            self._n += 1
            if self._primed is not None:
                shutil.copytree(self._primed, cache_dir)
        out = self._launch(self.kind, cache_dir, trace)
        if cache_dir is not None:
            shutil.rmtree(cache_dir)
        return self._count(out)

    def setup(self) -> dict:
        """Set-up times of a process that sets up like this one, then stops."""
        cache_dir = None if self.kind == "paper" else self.work / "setup-cache"
        return self._launch("setup", cache_dir)

    def _count(self, out: dict) -> dict:
        self.attempted += out["attempted"]
        self.failed += out["failed"]
        return out

    def _launch(self, kind: str, cache_dir: Optional[Path], trace: bool = False) -> dict:
        cmd = [sys.executable, str(HERE / "workload.py"), kind, "--seed", str(self.seed)]
        if cache_dir is not None:
            cmd += ["--cache-dir", str(cache_dir)]
        if trace:
            cmd.append("--trace")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"out of time before a {kind} process")
        try:
            proc = subprocess.run(
                cmd + ["--launch", repr(time.monotonic())],
                cwd=self.work, env=self._env, stdout=subprocess.PIPE,
                text=True, timeout=timeout, check=False,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{kind} process overran the run deadline") from None
        if proc.returncode != 0:
            raise BenchError(f"{kind} process exited with {proc.returncode}")
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            raise BenchError(f"{kind} process printed no result") from None


def _untraced(runner: _Runner, seconds: float, spec: dict) -> dict:
    outs: List[dict] = []
    start = time.monotonic()
    while not outs or time.monotonic() - start < seconds:
        outs.append(runner.measure())
    setups = list(outs)
    while len(setups) < MIN_SETUPS:
        setups.append(runner.setup())
    samples = {
        "wall_ref": [o["wall_ref"] for o in outs],
        "setup_s": [o["setup_s"] for o in setups],
        "peak_rss_mb": [o["peak_rss_mb"] for o in outs],
    }
    values = {name: statistics.median(v) for name, v in samples.items()}
    return {
        "metrics": _named(spec["end_to_end"], values),
        "samples": samples,
        # Host seconds, printed but not compared: the host's speed moves
        # them by more than any bound (see README.md, "Steadiness").
        "host": {
            "wall_s": [o["wall_s"] for o in outs],
            "setup_host_s": [o["setup_host_s"] for o in setups],
        },
        "attempted": runner.attempted,
        "failed": runner.failed,
        "simulated": outs[0].get("simulated", {}),
    }


def _traced(name: str, runner: _Runner, spec: dict) -> dict:
    plain = runner.measure()
    traced = runner.measure(trace=True)
    values = dict(traced["layers"])
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.untraced_wall_s"] = plain["wall_s"]
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    wrong = [m for m in PREDICTED_ZERO[name] if values[m] != 0]
    if wrong:
        raise BenchError(f"{name} should bypass, yet ran: {', '.join(wrong)}")
    return {
        "metrics": _named(spec["per_layer"], values),
        "samples": {},
        "attempted": runner.attempted,
        "failed": runner.failed,
        "simulated": traced.get("simulated", {}),
        "bypassed": PREDICTED_ZERO[name],
    }


def _named(declared: List[dict], values: Dict[str, float]) -> Dict[str, dict]:
    """The declared metrics, in BENCHMARK.json's order, with their units."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"BENCHMARK.json names unmeasured metrics: {missing}")
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
    }


def _print_report(name: str, report: dict, trace: int) -> None:
    error_rate = report["failed"] / report["attempted"]
    print(f"== {name} ({'traced' if trace else 'untraced'})")
    wall = report["metrics"].get("trace.wall_s", {}).get("value")
    for metric, m in report["metrics"].items():
        samples = report["samples"].get(metric)
        shown = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        line = f"  {metric:40s} {shown:>14} {m['unit']}"
        if samples is not None:
            line += (
                f"  (median of {len(samples)} processes;"
                f" range {min(samples):.6g}-{max(samples):.6g})"
            )
        elif wall and m["unit"] == "s" and metric.endswith(("self_s", "busy_s")):
            line += f"  ({100 * m['value'] / wall:.1f}% of traced wall)"
        print(line)
    for metric, values in report.get("host", {}).items():
        print(
            f"  {metric + ' (host time, not compared)':40s}"
            f" {statistics.median(values):>14.6g} s"
            f"  (median of {len(values)} processes;"
            f" range {min(values):.6g}-{max(values):.6g})"
        )
    print(
        f"  {'error_rate':40s} {error_rate:>14.6g} fraction"
        f"  ({report['failed']} of {report['attempted']} operations)"
    )
    for metric in report.get("bypassed", ()):
        print(f"  bypass confirmed: {metric} == 0")
    for metric, value in sorted(report["simulated"].items()):
        print(f"  simulated, not host time: {metric} = {value:.6g}")


if __name__ == "__main__":
    sys.exit(main())
