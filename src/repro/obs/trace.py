"""Hierarchical spans with wall-clock and simulated-clock timing.

A span covers one unit of work — a CLI invocation, one experiment, one
simulated day of aging replay.  Spans nest: the tracer keeps a stack,
so a span begun while another is open records that span as its parent,
and the trace reconstructs the tree.

The :class:`Tracer` is a :class:`repro.obs.events.RowLog`: each span is
one row, stored when the span *begins* and completed in place when it
ends, so the log is in begin order and a parent always precedes its
children.  A row's ``seq`` is its span id and ``parent_id`` is the
parent's ``seq`` (None for a root).  The bound, the ``log_truncated``
marker and :meth:`~repro.obs.events.RowLog.write_jsonl` are the row
log's; a run file carries the rows tagged ``span``.

Two clocks are recorded per span:

* **wall clock** (``time.perf_counter``) — how long the *reproduction*
  took, for finding slow experiments (``wall_start_s``,
  ``wall_elapsed_s``, the latter None while the span is open);
* **simulated clock** — optional, in whatever unit the instrumented
  layer uses (milliseconds for the disk model, days for aging replay).
  Callers pass it explicitly at begin/end (``sim_start``,
  ``sim_elapsed``); the tracer never guesses.

A tracer built with a :class:`repro.obs.profiling.PhaseProfiler`
profiles every :meth:`Tracer.span` block as the same-named phase, so
``--profile`` attributes time to the same units the trace shows.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterable, List, Optional

from repro.obs.events import Row, RowLog

if TYPE_CHECKING:
    from repro.obs.profiling import PhaseProfiler

__all__ = ["Tracer"]


class Tracer(RowLog):
    """A bounded log of spans, one row per span, in begin order."""

    kind = "span"

    def __init__(
        self,
        max_rows: Optional[int] = None,
        profiler: "Optional[PhaseProfiler]" = None,
    ) -> None:
        super().__init__(max_rows)
        #: Profiles each :meth:`span` block as a phase when set.
        self.profiler = profiler
        self._stack: List[Row] = []

    def begin(
        self, name: str, sim: Optional[float] = None, **attrs: object
    ) -> Row:
        """Open a span as a child of the innermost open span; returns
        its row (a detached one when the bound dropped it)."""
        row: Row = {
            "name": name,
            "parent_id": self._stack[-1]["seq"] if self._stack else None,
            "wall_start_s": time.perf_counter(),
            "wall_elapsed_s": None,
        }
        if sim is not None:
            row["sim_start"] = sim
        if attrs:
            row["attrs"] = dict(attrs)
        span = self.append(row)
        if span is None:
            span = {**row, "seq": self._seq}
        self._stack.append(span)
        return span

    def end(self, span: Row, sim: Optional[float] = None, **attrs: object) -> Row:
        """Close ``span`` (and any still-open descendants)."""
        if not any(open_ is span for open_ in self._stack):
            raise ValueError(f"span {span.get('name')!r} is not open")
        while self._stack[-1] is not span:
            self._close(self._stack.pop(), None)
        self._stack.pop()
        if attrs:
            span.setdefault("attrs", {}).update(attrs)  # type: ignore[union-attr]
        self._close(span, sim)
        return span

    @staticmethod
    def _close(span: Row, sim: Optional[float]) -> None:
        span["wall_elapsed_s"] = time.perf_counter() - span["wall_start_s"]  # type: ignore[operator]
        if sim is not None and "sim_start" in span:
            span["sim_elapsed"] = sim - span["sim_start"]  # type: ignore[operator]

    @contextmanager
    def span(self, name: str, sim: Optional[float] = None, **attrs: object):
        """``with tracer.span("experiment.fig1", preset="tiny") as row:``"""
        opened = self.begin(name, sim=sim, **attrs)
        try:
            if self.profiler is None:
                yield opened
            else:
                with self.profiler.phase(name):
                    yield opened
        finally:
            if opened["wall_elapsed_s"] is None:
                self.end(opened)

    def adopt(self, rows: Iterable[Row], dropped: int = 0, **stamp: object) -> int:
        """Graft another tracer's ``rows()`` under the innermost open span.

        :meth:`RowLog.adopt` renumbers the rows; one pass then re-points
        each ``parent_id`` at its parent's new ``seq`` (rows are in begin
        order, so parents come first), and the other tracer's roots hang
        under the open span.  Durations are kept; ``wall_start_s`` stays
        in the other process's clock, since ``perf_counter`` epochs are
        not comparable across processes.
        """
        rows = list(rows)
        first = len(self._rows)
        stored = super().adopt(rows, dropped, **stamp)
        adopted = self._rows[first:]
        new_id = {row["seq"]: mine["seq"] for row, mine in zip(rows, adopted)}
        root = self._stack[-1]["seq"] if self._stack else None
        for mine in adopted:
            mine["parent_id"] = new_id.get(mine["parent_id"], root)
        return stored
