"""``repro.faults`` — deterministic fault injection for the simulator.

The aged-FS comparison in the paper assumes a perfectly reliable disk;
this package removes that assumption without giving up determinism.  A
:class:`~repro.faults.plan.FaultPlan` is a *pure description* of what
will go wrong — a crash point, the fate probabilities of buffered
writes, a set of latently-bad blocks — sampled entirely from
:mod:`repro.rng` substreams, so the same seed always injects the same
faults.  The plan is inert data: it serialises into chaos reports.
Faulted replays never go through the artifact cache, so a plan is no
part of any cache key.

Three injection surfaces:

* :class:`~repro.faults.injector.FaultInjector` hooks the aging
  replayer's write pipeline and fires the plan's **crash point** —
  halting the replay after the Nth block write on (or after) day D and
  discarding/tearing the metadata writes still buffered above the disk
  model;
* :func:`~repro.faults.disk.read_fault_hook` arms a
  :class:`~repro.disk.model.DiskModel` with the plan's **latent sector
  errors**, surfaced as typed
  :class:`~repro.errors.LatentSectorReadError`;
* :mod:`~repro.faults.chaos` ties injection to :mod:`repro.fsck`:
  replay → crash → repair → measure, over a seeded grid of crash
  points per policy.

Every injection emits a ``fault_injected`` row into the
:mod:`repro.obs.events` timeline when telemetry is on, and nothing in
this package runs unless a plan is explicitly supplied — the no-fault
path is byte-identical to a build without this package.
"""

from __future__ import annotations

from repro.faults.chaos import ChaosOutcome, run_chaos
from repro.faults.disk import read_fault_hook
from repro.faults.injector import CrashPointReached, CrashSummary, FaultInjector
from repro.faults.plan import CrashSpec, FaultPlan, sample_plans

__all__ = [
    "ChaosOutcome",
    "CrashPointReached",
    "CrashSpec",
    "CrashSummary",
    "FaultInjector",
    "FaultPlan",
    "read_fault_hook",
    "run_chaos",
    "sample_plans",
]
