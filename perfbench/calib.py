"""A fixed reference computation that measures how fast the host runs.

The host's speed changes in phases of a minute or more that the guest
cannot see: other tenants share its cores and caches, steal time stays
near zero, and process CPU time grows with wall time.  ``Sampler`` runs
one round of a fixed reference loop at a steady wall-clock interval
while the workload runs, so the reference meets the same phases as the
workload.  Dividing the workload's time by the reference's cancels most
of the host's speed.  The loop is the benchmark's own code and never
changes with the program, so a change in the ratio is a change in the
program.

Its mix follows the program's: small objects in dicts and lists,
sorting, float arithmetic and deep copies of nested containers.
"""

from __future__ import annotations

import copy
import gc
import signal
import time

#: Reference rounds that make one unit of ``wall_ref`` (about 0.45 s on
#: a quiet 2-vCPU Intel Xeon host with Python 3.11).
ROUNDS_PER_UNIT = 100
#: Wall-clock seconds between two reference rounds.
INTERVAL_S = 0.04
#: Seconds one round takes, in a fresh process, on the nominal host: a
#: quiet 2-vCPU Intel Xeon with Python 3.11.  ``nominal_seconds`` scales
#: host seconds to it.
NOMINAL_ROUND_S = 0.0032
#: Rounds timed to scale a short interval such as set-up.
SCALE_ROUNDS = 10


def one_round() -> None:
    """One round of the reference loop (3-5 ms on a quiet host)."""
    table = {}
    for i in range(3000):
        table[(i * 7919) % 4099] = [i, i * 0.5, (i, i + 1)]
    rows = sorted(table.items(), key=lambda kv: kv[1][1])
    total = 0.0
    for _key, row in rows:
        total += row[1] * 1.0001 - row[0] * 0.25
    copied = copy.deepcopy(rows[:300])
    if total != total or len(copied) != 300:  # pragma: no cover
        raise AssertionError("reference loop went wrong")


def timed_rounds(rounds: int) -> float:
    """Seconds taken by ``rounds`` reference rounds.

    The cyclic garbage collector is off meanwhile: a collection of the
    caller's heap (tens of MB of file-system objects in a workload) would
    otherwise be timed as reference time.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(rounds):
            one_round()
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def nominal_seconds(host_s: float) -> float:
    """``host_s`` just measured, as seconds on the nominal host.

    Times ``SCALE_ROUNDS`` rounds now and scales by how much slower or
    faster they ran than ``NOMINAL_ROUND_S``.
    """
    round_s = timed_rounds(SCALE_ROUNDS) / SCALE_ROUNDS
    return host_s * NOMINAL_ROUND_S / round_s


class Sampler:
    """Interleaves reference rounds with the code run between start and stop.

    A wall-clock timer interrupts the workload every ``INTERVAL_S``; the
    handler runs one reference round and times it.  ``ref_s`` is the
    summed time of those rounds, and ``wall_s`` the time between start
    and stop minus the rounds run in it: the workload's own time.  An
    inactive sampler (the traced run) only times, and runs no rounds.
    """

    def __init__(self, active: bool = True) -> None:
        self.active = active
        self.rounds = 0
        self.ref_s = 0.0
        self.wall_s = 0.0
        self._start = 0.0
        self._before_s = 0.0
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        self.ref_s += timed_rounds(1)
        self.rounds += 1

    def start(self) -> None:
        if self.active:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            self._tick(None, None)  # at least one round, however short the body
        self._start = time.perf_counter()
        self._before_s = self.ref_s
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - self._start
        if self.active:
            signal.signal(signal.SIGALRM, self._previous)
        self.wall_s = elapsed - (self.ref_s - self._before_s)

    def report(self) -> dict:
        """``wall_s``; when active, also ``wall_ref``: ``wall_s`` in units of
        ``ROUNDS_PER_UNIT`` rounds as long as the average round run here."""
        if not self.rounds:
            return {"wall_s": self.wall_s}
        return {
            "wall_s": self.wall_s,
            "wall_ref": self.wall_s / (self.ref_s / self.rounds * ROUNDS_PER_UNIT),
            "ref_s": self.ref_s,
            "ref_rounds": self.rounds,
        }
