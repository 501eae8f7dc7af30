"""Benchmark repetition and measurement statistics.

The paper executes every throughput benchmark ten times and reports the
mean, noting standard deviations below 1.5–2% of the mean.  In the
simulator the only run-to-run variation is the platter's initial angle
(everything else is deterministic), so :class:`BenchmarkRunner` repeats a
timed function across a set of evenly spaced initial angles and collects
:class:`Measurement` statistics.  A phase whose layout is frozen issues
the same requests at every angle, so :meth:`BenchmarkRunner.measure_stream`
prices one prebuilt request list: it plans the list once and clocks the
plan at each angle, since only the rotational wait depends on the angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Sequence, Tuple

if TYPE_CHECKING:
    from repro.disk.model import IOKind
    from repro.storage import StorageModel


@dataclass(frozen=True)
class Measurement:
    """Mean/stddev of a repeated throughput measurement (bytes/second)."""

    values: Sequence[float]

    @property
    def mean(self) -> float:
        """Arithmetic mean of the runs."""
        return sum(self.values) / len(self.values)

    @property
    def stddev(self) -> float:
        """Population standard deviation of the runs."""
        mu = self.mean
        return math.sqrt(sum((v - mu) ** 2 for v in self.values) / len(self.values))

    @property
    def relative_stddev(self) -> float:
        """Standard deviation as a fraction of the mean."""
        mu = self.mean
        return self.stddev / mu if mu else 0.0


class BenchmarkRunner:
    """Runs a timed function under ``repetitions`` initial platter angles.

    The timed function receives the initial angle (fraction of a
    rotation) and must return throughput in bytes/second.
    """

    def __init__(self, repetitions: int = 10) -> None:
        if repetitions < 1:
            raise ValueError("need at least one repetition")
        self.repetitions = repetitions

    def angles(self) -> List[float]:
        """Evenly spaced initial angles, one per repetition."""
        return [i / self.repetitions for i in range(self.repetitions)]

    def measure(self, timed: Callable[[float], float]) -> Measurement:
        """Run ``timed`` once per angle and collect the results."""
        return Measurement(values=[timed(angle) for angle in self.angles()])

    def measure_stream(
        self,
        device: Callable[..., "StorageModel"],
        kind: "IOKind",
        requests: Sequence[Tuple[int, int]],
        nbytes: int,
    ) -> Measurement:
        """Throughput of moving ``nbytes`` by serving ``requests``.

        The list is planned once, on a fresh ``device()``; each angle
        then clocks the plan on a fresh ``device(initial_angle=...)``,
        which prices exactly what serving the whole list there would.
        An empty list moves nothing in no time, which reads as zero
        throughput.
        """
        plan = device().plan(kind, requests)

        def timed(angle: float) -> float:
            elapsed_ms = device(initial_angle=angle).clock(plan)
            return nbytes / (elapsed_ms / 1000.0) if elapsed_ms else 0.0

        return self.measure(timed)
