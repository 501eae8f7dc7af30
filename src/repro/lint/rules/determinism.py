"""R001 — determinism: all nondeterminism flows through ``repro.rng``.

The aged-FS cache keys, the serial/parallel stdout equivalence, and the
paper-shape regression tests all assume a run is a pure function of
``(code, parameters, master seed)``.  One stray ``random.random()`` or
``time.time()`` in simulation code silently breaks every one of those
guarantees — and nothing fails until a cache entry goes stale or a
parallel run diverges.

This rule bans, outside :mod:`repro.rng` (the one legal home for
``random``) and :mod:`repro.obs` (telemetry records wall-clock by
design and is excluded from the byte-identical guarantee):

* importing ``random``, ``uuid``, or ``secrets``;
* calling ``time.time`` / ``time.time_ns`` / ``os.urandom`` /
  ``datetime.datetime.now`` / ``utcnow`` / ``today`` /
  ``datetime.date.today``;
* the clock-*sampling* forms of ``time.localtime`` / ``gmtime`` /
  ``ctime`` (zero args) and ``time.strftime`` (one arg — no explicit
  struct_time means "now").

Passing an explicit timestamp (``time.localtime(entry.created_at)``,
``time.strftime(fmt, t)``) is fine: that formats recorded state, it
does not sample the clock.  Monotonic timers (``time.monotonic``,
``time.perf_counter``) are also allowed — they measure wall time for
reporting and cannot leak into simulated state by value, because their
epoch is meaningless.

Compliant randomness::

    from repro import rng
    stream = rng.substream(master_seed, "aging.delete")

Genuinely wall-clock sites (a report date stamp, a manifest
``created_at``) are waived at the line::

    "created_at": int(time.time()),  # replint: disable=R001  (manifest metadata, ...)

:mod:`repro.faults` is deliberately **not** exempt.  Fault injection is
the code most tempted to reach for ``random`` ("it's chaos testing,
who cares") and the code where it would hurt the most: a fault plan is
replayed and compared across processes, so its crash points
and fate draws must come from :func:`repro.rng.substream` like every
other sampled quantity.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.registry import ModuleContext, Rule, register

#: Modules whose very import is a finding.
_BANNED_MODULES = {"random", "uuid", "secrets"}

#: Fully dotted callables that always sample nondeterministic state.
_BANNED_CALLS = {
    "time.time",
    "time.time_ns",
    "os.urandom",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: Callables that sample the clock only when called with no positional
#: argument (an explicit struct_time/seconds argument formats recorded
#: state instead).
_ZERO_ARG_SAMPLERS = {"time.localtime", "time.gmtime", "time.ctime", "time.asctime"}

#: ``time.strftime(fmt)`` samples the clock; ``time.strftime(fmt, t)``
#: formats the supplied time.
_ONE_ARG_SAMPLERS = {"time.strftime"}

#: Packages exempt from this rule entirely.
_EXEMPT_PACKAGES = ("repro.rng", "repro.obs")


@register
class DeterminismRule(Rule):
    __doc__ = __doc__

    rule_id = "R001"
    name = "determinism"
    summary = (
        "no random/uuid/secrets imports or clock-sampling calls outside "
        "repro.rng and repro.obs; route randomness through repro.rng"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if any(module.in_package(pkg) for pkg in _EXEMPT_PACKAGES):
            return

        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.split(".")[0]
                    if top in _BANNED_MODULES:
                        yield module.finding(
                            self,
                            node,
                            f"import of nondeterministic module '{alias.name}'; "
                            f"use repro.rng substreams instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                top = (node.module or "").split(".")[0]
                if node.level == 0 and top in _BANNED_MODULES:
                    yield module.finding(
                        self,
                        node,
                        f"import from nondeterministic module '{node.module}'; "
                        f"use repro.rng substreams instead",
                    )
            elif isinstance(node, ast.Call):
                dotted = module.dotted(node.func)
                if dotted is None:
                    continue
                nargs = len(node.args) + len(node.keywords)
                if (
                    dotted in _BANNED_CALLS
                    or (dotted in _ZERO_ARG_SAMPLERS and nargs == 0)
                    or (dotted in _ONE_ARG_SAMPLERS and nargs <= 1)
                ):
                    yield module.finding(
                        self,
                        node,
                        f"call to '{dotted}' samples nondeterministic state; "
                        f"simulation output must be a function of (params, seed)",
                    )
