"""The lint diagnostic record.

One :class:`Finding` per violation, carrying exactly what an editor or a
CI annotation needs: a repo-relative path, 1-based line, 1-based column,
the rule id, and a message that states the contract being broken (not
just the syntax that tripped it).  Findings order by position so output
is stable across runs and machines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: Rule id used for files that cannot be parsed at all.  Not a real rule:
#: it has no registry entry and cannot be waived by pragma — a file the
#: analyzer cannot read is a problem no matter what.
PARSE_ERROR = "E000"


@dataclass(frozen=True)
class Finding:
    """One diagnostic: where, which rule, and why it matters."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def format(self) -> str:
        """The canonical ``file:line:col RULE-ID message`` rendering."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        """JSON form (``repro-ffs lint --json``)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
        }

    @property
    def sort_key(self) -> Tuple[str, int, int, str, str]:
        """Position-major ordering, stable across runs."""
        return (self.path, self.line, self.col, self.rule_id, self.message)
