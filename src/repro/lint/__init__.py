"""``repro.lint`` — replint, the repo-aware static-analysis pass.

The reproduction's headline guarantees are statements about the *code*,
not about any particular run: randomness flows only through
:mod:`repro.rng`, telemetry is reachable only through the nullable
``*_or_none()`` facades (so the disabled path stays byte-identical),
library errors are :mod:`repro.errors` types, callables handed to the
process pool are picklable, and quantities in different units never mix
silently.  Nothing about running the test suite enforces those
conventions — a refactor can break them while every test still passes.
replint checks them mechanically, on every PR.

v2 adds whole-program analysis: the per-file rules (R001–R005) are
joined by project rules (R101–R104) that see every linted file at once
through a resolved call graph, so the determinism contract can be
*proved* transitively — every function reachable from cache-key
construction, aging replay, or fault-plan sampling is shown untainted
by clocks, randomness, environment reads, and set-iteration order —
instead of being spot-checked file by file.

The pieces:

* :mod:`repro.lint.findings` — the ``file:line:col RULE-ID message``
  diagnostic record;
* :mod:`repro.lint.registry` — the rule base class and registry
  (``repro-ffs lint --list-rules`` / ``--explain RULE``);
* :mod:`repro.lint.graph` — the AST-only import/call-graph builder
  (direct calls, constructors, ``self``/typed dispatch, an
  import-closure-bounded CHA fallback, and an honest ``dynamic``
  bottom for what cannot be resolved);
* :mod:`repro.lint.dataflow` — the deterministic worklist fixed-point
  solver project rules share;
* :mod:`repro.lint.project` — :class:`ProjectContext` /
  :class:`ProjectRule`, the whole-program rule interface;
* :mod:`repro.lint.rules` — the shipped rules: per-file R001–R005 and
  project-wide R101 (transitive determinism), R102 (schema-registry
  drift), R103 (interprocedural unit flow), R104 (set iteration
  order), each grounded in one of the contracts above;
* :mod:`repro.lint.pragmas` — inline waivers:
  ``# replint: disable=R001  (reason)``;
* :mod:`repro.lint.baseline` — the committed grandfather file
  (``replint.baseline/v2``: fingerprints carry the enclosing symbol
  path) so a gate can be adopted without a flag day;
* :mod:`repro.lint.engine` — file collection, parsing, graph
  construction, and the suppression pipeline tying it all together.

CLI: ``repro-ffs lint [PATHS] [--json] [--graph-json FILE]``; exit
codes follow the CLI's own contract: 0 clean, 1 findings, 2 usage
error.
"""

from __future__ import annotations

from repro.lint.baseline import Baseline
from repro.lint.engine import LintResult, collect_file_facts, lint_paths
from repro.lint.findings import Finding
from repro.lint.graph import CallGraph, build_graph
from repro.lint.project import ProjectContext, ProjectRule
from repro.lint.registry import Rule, all_rules, get_rule, register

# Importing the rules package registers the shipped rules.
from repro.lint import rules as _rules  # noqa: F401

__all__ = [
    "Baseline",
    "CallGraph",
    "Finding",
    "LintResult",
    "ProjectContext",
    "ProjectRule",
    "Rule",
    "all_rules",
    "build_graph",
    "collect_file_facts",
    "get_rule",
    "lint_paths",
    "register",
]
