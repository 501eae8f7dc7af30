"""Fault plans: pure, seeded descriptions of what will go wrong.

A plan is sampled once from :mod:`repro.rng` substreams and then never
consults randomness again at decision *sites* — the injector derives its
own fate stream from the plan's seed, so two runs under equal plans
inject byte-identical faults no matter how the consuming code
interleaves other work.  Plans are frozen dataclasses with a canonical
JSON payload (:meth:`FaultPlan.to_payload`), which is exactly what
enters the artifact-cache key: a cached no-fault aged image can never be
served for a faulted run because the key payloads differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import rng
from repro.errors import InvalidRequestError


@dataclass(frozen=True)
class CrashSpec:
    """One crash point: halt after the Nth block write on/after day D.

    The crash *arms* at the start of simulated day ``day`` and fires the
    moment the ``after_block_writes``-th block write since arming
    completes — so a crash point whose day turns out quieter than N
    writes still fires, on the first day that accumulates enough write
    traffic (real crashes do not politely wait for a busy day either).
    """

    day: int
    after_block_writes: int

    def __post_init__(self) -> None:
        if self.day < 0:
            raise InvalidRequestError(f"crash day {self.day} is negative")
        if self.after_block_writes < 1:
            raise InvalidRequestError(
                f"crash after {self.after_block_writes} block writes; "
                "must be >= 1"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic fault-injection plan.

    Parameters
    ----------
    seed:
        Master seed of the plan's own fate substreams (buffered-write
        fates at crash time are drawn from
        ``rng.substream(seed, "faults.fates")``).
    crash:
        The crash point, or ``None`` for a plan that never crashes
        (useful as the damage-free control of a chaos case — it halts
        nothing and tears nothing).
    drop_prob:
        Probability that a metadata write still buffered at crash time
        was wholly lost (never reached the disk).
    tear_prob:
        Probability that a buffered *multi-block* write was torn — only
        a prefix of its blocks reached the disk.
    flush_interval_ops:
        Operations between metadata flushes.  Writes older than the last
        flush are durable; only the ops since it are at risk at a crash.
    bad_blocks:
        File-system block addresses with latent sector errors: reading
        any of them raises :class:`~repro.errors.LatentSectorReadError`.
    """

    seed: int
    crash: Optional[CrashSpec] = None
    drop_prob: float = 0.5
    tear_prob: float = 0.25
    flush_interval_ops: int = 16
    bad_blocks: Tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_prob <= 1.0:
            raise InvalidRequestError(f"drop_prob {self.drop_prob} not in [0, 1]")
        if not 0.0 <= self.tear_prob <= 1.0:
            raise InvalidRequestError(f"tear_prob {self.tear_prob} not in [0, 1]")
        if self.drop_prob + self.tear_prob > 1.0:
            raise InvalidRequestError(
                "drop_prob + tear_prob exceeds 1.0; fates must be a "
                "probability split"
            )
        if self.flush_interval_ops < 1:
            raise InvalidRequestError(
                f"flush_interval_ops {self.flush_interval_ops} must be >= 1"
            )

    def to_payload(self) -> Dict[str, object]:
        """Canonical JSON-serializable form (cache keys, chaos reports)."""
        return {
            "seed": self.seed,
            "crash": (
                None
                if self.crash is None
                else {
                    "day": self.crash.day,
                    "after_block_writes": self.crash.after_block_writes,
                }
            ),
            "drop_prob": self.drop_prob,
            "tear_prob": self.tear_prob,
            "flush_interval_ops": self.flush_interval_ops,
            "bad_blocks": list(self.bad_blocks),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_payload` output."""
        crash_blob = payload.get("crash")
        crash = (
            None
            if crash_blob is None
            else CrashSpec(
                day=int(crash_blob["day"]),  # type: ignore[index,call-overload]
                after_block_writes=int(
                    crash_blob["after_block_writes"]  # type: ignore[index,call-overload]
                ),
            )
        )
        return cls(
            seed=int(payload["seed"]),  # type: ignore[call-overload]
            crash=crash,
            drop_prob=float(payload["drop_prob"]),  # type: ignore[arg-type]
            tear_prob=float(payload["tear_prob"]),  # type: ignore[arg-type]
            flush_interval_ops=int(
                payload["flush_interval_ops"]  # type: ignore[call-overload]
            ),
            bad_blocks=tuple(payload["bad_blocks"]),  # type: ignore[arg-type]
        )

    def inert(self) -> "FaultPlan":
        """The damage-free twin of this plan.

        Same crash point — the replay halts at the identical op — but
        every buffered write survives, so the halted file system is
        exactly what a clean shutdown at that instant would leave.  The
        chaos harness uses this as the never-crashed comparator.
        """
        return FaultPlan(
            seed=self.seed,
            crash=self.crash,
            drop_prob=0.0,
            tear_prob=0.0,
            flush_interval_ops=self.flush_interval_ops,
            bad_blocks=(),
        )


def sample_plans(
    master_seed: int,
    days: int,
    count: int,
    max_write: int = 400,
    drop_prob: float = 0.5,
    tear_prob: float = 0.25,
) -> List[FaultPlan]:
    """Sample a seeded grid of ``count`` crash plans over ``days``.

    Crash days are drawn uniformly from the aging window (skipping day
    0, whose early writes are dominated by the seed directories) and the
    write ordinal uniformly from ``[1, max_write]``.  Each plan gets its
    own derived seed so fate streams never collide across plans.  The
    whole grid is a pure function of ``(master_seed, days, count,
    max_write, drop_prob, tear_prob)``.
    """
    if count < 1:
        raise InvalidRequestError(f"cannot sample {count} fault plans")
    if days < 2:
        raise InvalidRequestError(
            f"need an aging window of >= 2 days to place crashes (got {days})"
        )
    stream = rng.substream(master_seed, "faults.grid")
    plans: List[FaultPlan] = []
    for index in range(count):
        plans.append(
            FaultPlan(
                seed=master_seed * 10_000 + index,
                crash=CrashSpec(
                    day=stream.randint(1, days - 1),
                    after_block_writes=stream.randint(1, max_write),
                ),
                drop_prob=drop_prob,
                tear_prob=tear_prob,
            )
        )
    return plans
