"""R002 — telemetry purity: obs access only via guarded ``*_or_none()``.

The telemetry-off path is guaranteed byte-identical to the seed tree:
with no ``--run``, ``--record`` or ``--profile`` flag (``--disk-rows``
only adds rows to a run file), a run allocates no registries, takes no
locks, and emits exactly the seed's stdout.
That guarantee holds because library code touches :mod:`repro.obs`
exclusively through the nullable facades::

    m = obs.metrics_or_none()
    if m is not None:
        m.counter("ffs.alloc.calls").inc()

``obs.metrics()`` is the session owner's accessor: it returns the live
registry and raises when no session is live.  Called from library code
it would crash every untraced run, so this rule flags any call to it
from ``repro.*`` modules outside :mod:`repro.obs` itself and
:mod:`repro.cli` (the CLI owns session setup and legitimately calls
``obs.enable``/``obs.session``).

``obs.enable`` / ``obs.disable`` / ``obs.session`` are not flagged:
starting or scoping a telemetry session is explicit opt-in, which is
the opposite of a purity leak (the parallel workers use ``obs.session``
to re-home their metrics, by design).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.registry import ModuleContext, Rule, register

#: Session-owner accessors that raise when telemetry is off.
_BARE_FACADES = {"repro.obs.metrics"}

#: Packages/modules allowed to touch obs directly.
_EXEMPT_PACKAGES = ("repro.obs", "repro.cli")


@register
class TelemetryPurityRule(Rule):
    __doc__ = __doc__

    rule_id = "R002"
    name = "telemetry-purity"
    summary = (
        "library code reaches repro.obs only through *_or_none() facades, "
        "guarded before use (protects the byte-identical-off guarantee)"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not module.in_package("repro"):
            # Only repro library code carries the purity contract;
            # fixture snippets opt in via a fake repro path.
            return
        if any(module.in_package(pkg) for pkg in _EXEMPT_PACKAGES):
            return

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = module.dotted(node.func)
            if dotted is None:
                continue
            # Normalise both `from repro import obs; obs.metrics()` and
            # `from repro.obs import metrics; metrics()` spellings.
            if dotted in _BARE_FACADES or f"repro.{dotted}" in _BARE_FACADES:
                facade = dotted.rsplit(".", 1)[-1]
                yield module.finding(
                    self,
                    node,
                    f"bare 'obs.{facade}()' in library code; use "
                    f"'obs.{facade}_or_none()' and guard with 'is not None': "
                    f"'obs.{facade}()' raises when telemetry is off",
                )
