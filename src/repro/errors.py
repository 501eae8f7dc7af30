"""Exception hierarchy for the FFS allocation-policy reproduction.

Errors are split into four families:

* :class:`SimulationError` — anything raised by the simulator proper,
* :class:`ConsistencyError` — an internal invariant was violated (these are
  bugs, and the fsck-lite checker raises them),
* :class:`WorkloadError` — malformed aging-workload input, and
  :class:`MalformedInputError` — a manifest or image file that is not
  what its reader expects,
* :class:`FaultInjectionError` — an *injected* failure from
  :mod:`repro.faults` (:class:`CrashPointReached`); these model
  hardware misbehaviour, not simulator bugs.

The CLI maps every family onto a stable exit code via
:func:`exit_code_for`, so scripts and CI can distinguish "the input was
bad" from "the simulation failed" without parsing stderr.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.faults.injector import CrashSummary

#: CLI exit codes, shared by every ``repro-ffs`` subcommand:
#: 0 — success; 1 — the operation ran and failed (corruption found, a
#: simulation error, a regression); 2 — the request itself was unusable
#: (missing file, malformed input, bad flag value).
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


class SimulationError(Exception):
    """Base class for all errors raised by the simulator."""


class OutOfSpaceError(SimulationError):
    """The file system has no free block/fragment satisfying a request.

    Mirrors the kernel's ``ENOSPC``.  Carries the cylinder group that was
    being searched when space ran out (or ``None`` for a global failure).
    """

    def __init__(self, message: str, cg: "int | None" = None) -> None:
        super().__init__(message)
        self.cg = cg


class FileNotFoundSimError(SimulationError):
    """An operation referenced an inode that does not exist."""


class FileExistsSimError(SimulationError):
    """A create referenced an inode number that is already live."""


class InvalidRequestError(SimulationError):
    """Caller asked for something nonsensical (negative size, bad offset)."""


class ConsistencyError(SimulationError):
    """An internal invariant of the file system state was violated.

    Raised by :mod:`repro.ffs.check`; seeing one of these means the
    simulator itself has a bug, not the caller.
    """


class WorkloadError(SimulationError):
    """An aging-workload record was malformed or out of order."""


class MalformedInputError(SimulationError, ValueError):
    """An input file is not what its reader expects.

    Raised when a run manifest, a registry document, a JSONL row file
    or a file-system image is not JSON, not a JSON object, carries a
    foreign schema or format, or has the wrong shape.  It is also a
    :class:`ValueError`, so readers that refuse a bad value keep
    refusing it; the CLI maps it to a usage error.
    """


def is_number(value: object) -> bool:
    """True for a JSON number (a bool is not one); the loaders that
    raise :class:`MalformedInputError` share this and :func:`is_int`."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_int(value: object) -> bool:
    """True for a JSON integer (a bool is not one)."""
    return isinstance(value, int) and not isinstance(value, bool)


class RunStoreError(MalformedInputError):
    """A run-registry document under ``.repro/runs/`` was unusable.

    Raised by :mod:`repro.obs.store` when an entry is unreadable,
    truncated, carries a foreign schema or has the wrong shape, and
    when a run id names no run (or several).  Bulk listings
    (``repro-ffs history``, drift trends) catch it per entry and
    degrade to a one-line stderr warning; addressing one run directly
    (``repro-ffs diff <run-id>``) lets it surface.  Carries the path
    of the offending document.
    """

    def __init__(self, message: str, path: "str | None" = None) -> None:
        super().__init__(message)
        self.path = path


class FaultInjectionError(SimulationError):
    """Base class for failures *injected* by :mod:`repro.faults`.

    These are deliberate, plan-driven misbehaviours of the simulated
    hardware — not bugs in the simulator.  Code that opts into fault
    injection catches these; code that never enables a fault plan never
    sees one.
    """


class CrashPointReached(FaultInjectionError):
    """The plan's crash point fired; the replay must halt.

    Carries the :class:`~repro.faults.injector.CrashSummary` of the
    damage just applied.  The aging replayer catches this and returns
    its partial result with ``crashed=True``; nothing else should
    swallow it.  It lives here, not in :mod:`repro.faults`, so the
    replayer can name it without importing the fault package.
    """

    def __init__(self, message: str, summary: "CrashSummary") -> None:
        super().__init__(message)
        self.summary = summary


def exit_code_for(exc: BaseException) -> int:
    """The CLI exit code for an exception that escaped a subcommand.

    Malformed *input* (a bad workload file, a nonsensical request, an
    unreadable path) is a usage error (2); everything else the simulator
    raises — including corruption found by the checker and injected
    faults — is an operational failure (1).
    """
    if isinstance(
        exc, (WorkloadError, InvalidRequestError, MalformedInputError, OSError)
    ):
        return EXIT_USAGE
    if isinstance(exc, SimulationError):
        return EXIT_FAILURE
    return EXIT_FAILURE
