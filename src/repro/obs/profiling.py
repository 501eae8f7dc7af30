"""Per-phase ``cProfile`` attribution for the telemetry layer.

``repro-ffs ... --profile`` answers the question a span tree cannot:
*which functions* inside a slow phase are burning the time.  A
:class:`PhaseProfiler` keeps one ``cProfile.Profile`` per named phase
(one per experiment, or one for the whole CLI invocation when nothing
finer-grained opens a phase) and derives a ``pstats``-style "top
offenders" table per phase, which the CLI folds into the run manifest
and prints to stderr.

Phases nest the way spans do: entering an inner phase suspends the
outer profile and resumes it on exit, so samples are attributed to the
innermost open phase and never double-counted.  Re-entering a phase
name accumulates into the same profile (``cProfile`` supports repeated
enable/disable), which is what a phase that straddles loop iterations
wants.

A ``--jobs N`` worker profiles its own phases and ships their raw
stats home (:meth:`PhaseProfiler.stats`); the parent folds them in by
phase name (:meth:`PhaseProfiler.adopt`), so a parallel run's profile
has the phases a serial run's has.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from contextlib import contextmanager
from typing import Any, Dict, List

__all__ = ["PhaseProfiler", "render_profile"]

#: One phase's raw ``pstats`` table: ``(file, line, func) ->
#: (primitive calls, calls, tottime, cumtime, callers)``.
RawStats = Dict[Any, Any]


def _merge(into: RawStats, raw: RawStats) -> None:
    for func, stat in raw.items():
        into[func] = pstats.add_func_stats(  # type: ignore[attr-defined]
            into.get(func, (0, 0, 0.0, 0.0, {})), stat
        )


def _format_func(filename: str, line: int, funcname: str) -> str:
    """Compact ``file:line(func)`` label; builtins keep pstats' form."""
    if filename == "~":
        return funcname  # C builtin, e.g. "<built-in method ...>"
    return f"{os.path.basename(filename)}:{line}({funcname})"


class PhaseProfiler:
    """One ``cProfile.Profile`` per phase, with nested attribution."""

    def __init__(self, top: int = 10):
        #: Rows per phase in :meth:`report` (the manifest table length).
        self.top = top
        self._profiles: Dict[str, cProfile.Profile] = {}
        #: Stats adopted from worker processes, per phase.
        self._shipped: Dict[str, RawStats] = {}
        self._order: List[str] = []
        self._stack: List[cProfile.Profile] = []

    @contextmanager
    def phase(self, name: str):
        """Profile a block under ``name``, suspending any outer phase."""
        profile = self._profiles.get(name)
        if profile is None:
            profile = cProfile.Profile()
            self._profiles[name] = profile
            if name not in self._shipped:
                self._order.append(name)
        if self._stack:
            self._stack[-1].disable()
        self._stack.append(profile)
        profile.enable()
        try:
            yield
        finally:
            profile.disable()
            self._stack.pop()
            if self._stack:
                self._stack[-1].enable()

    def phases(self) -> List[str]:
        """Phase names in first-entered order."""
        return list(self._order)

    def _phase_stats(self, name: str) -> RawStats:
        """One phase's raw stats: its own profile plus anything adopted."""
        entries: RawStats = {}
        _merge(entries, self._shipped.get(name, {}))
        profile = self._profiles.get(name)
        if profile is not None:
            profile.create_stats()
            _merge(entries, profile.stats)  # type: ignore[attr-defined]
        return entries

    def stats(self) -> Dict[str, RawStats]:
        """Every phase's raw stats (picklable), in first-entered order,
        for a worker to ship home.  Must be called with phases closed."""
        return {name: self._phase_stats(name) for name in self._order}

    def adopt(self, shipped: Dict[str, RawStats]) -> None:
        """Fold a worker's :meth:`stats` in, merging by phase name."""
        for name, raw in shipped.items():
            if name not in self._profiles and name not in self._shipped:
                self._order.append(name)
            _merge(self._shipped.setdefault(name, {}), raw)

    def top_offenders(self, name: str, limit: int = 0) -> List[Dict[str, object]]:
        """The hottest functions of one phase, by self (tottime) time.

        Each row carries ``function`` (``file:line(func)``), ``ncalls``,
        ``tottime_s`` and ``cumtime_s``.  Must be called with the phase
        closed (no profile running).
        """
        rows: List[Dict[str, object]] = []
        stats = self._phase_stats(name)
        for func, (_cc, ncalls, tottime, cumtime, _callers) in stats.items():
            rows.append({
                "function": _format_func(*func),
                "ncalls": ncalls,
                "tottime_s": round(tottime, 6),
                "cumtime_s": round(cumtime, 6),
            })
        rows.sort(key=lambda r: (-r["tottime_s"], r["function"]))  # type: ignore[operator, index]
        return rows[: (limit or self.top)]

    def report(self) -> Dict[str, List[Dict[str, object]]]:
        """Top offenders for every phase, in first-entered order.

        This is the structure sealed into the run manifest's
        ``profile`` field.
        """
        return {name: self.top_offenders(name) for name in self._order}


def render_profile(report: Dict[str, List[Dict[str, object]]]) -> str:
    """Aligned text tables of a :meth:`PhaseProfiler.report` (what the
    CLI prints to stderr after a ``--profile`` run)."""
    from repro.analysis.report import render_table

    blocks: List[str] = []
    for phase, rows in report.items():
        table = [
            (
                str(row["function"]),
                str(row["ncalls"]),
                f"{row['tottime_s']:.4f}",
                f"{row['cumtime_s']:.4f}",
            )
            for row in rows
        ]
        blocks.append(
            render_table(
                ["function", "ncalls", "tottime (s)", "cumtime (s)"],
                table,
                title=f"profile: {phase}",
            )
        )
    if not blocks:
        return "(no phases profiled)"
    return "\n\n".join(blocks)
