"""Shipped replint rules.

Importing this package registers every rule; each module holds one rule
and its full rationale.  Ids are stable forever — retired rules leave a
tombstone comment here rather than freeing the number.
"""

from __future__ import annotations

from repro.lint.rules import determinism as _determinism  # noqa: F401
from repro.lint.rules import telemetry as _telemetry  # noqa: F401
from repro.lint.rules import errors as _errors  # noqa: F401

# R004 (parallel-pickle-safety) is retired: the only executor submit
# passes a fixed module-level function, and the task callables that do
# cross the process boundary are exercised at jobs=2 by the test suite.
# R005 (unit-hygiene) is folded into R103, which flags +/- between
# conflicting unit suffixes in every linted module.

# Project-scope rules (whole-program graph + dataflow).
from repro.lint.rules import iteration as _iteration  # noqa: F401
from repro.lint.rules import graph_determinism as _graph_determinism  # noqa: F401
from repro.lint.rules import schema_registry as _schema_registry  # noqa: F401
from repro.lint.rules import units_flow as _units_flow  # noqa: F401
