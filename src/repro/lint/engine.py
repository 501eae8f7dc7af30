"""File collection, parsing, and the suppression pipeline.

:func:`lint_paths` is the whole analyzer as one call: collect ``*.py``
files under the given paths, parse each, run the selected module rules,
build the whole-program call graph and run the project rules
(R101–R104), then drop what an inline pragma waives (a deliberate,
commented waiver at the site).  What survives is the lint failure.

Files that do not parse produce a non-suppressible ``E000`` finding:
an unreadable file can hide anything, so no pragma may wave it
through.  Project rules analyze whatever subset *did* parse — a broken
file degrades the graph conservatively (its callees become unknown),
it does not disable the analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Type

from repro import schemas
from repro.lint.findings import PARSE_ERROR, Finding
from repro.lint.graph import build_graph
from repro.lint.pragmas import PragmaMap, parse_pragmas
from repro.lint.project import ProjectContext, ProjectRule
from repro.lint.registry import ModuleContext, Rule, all_rules, build_context

#: Directory names never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".hg", "node_modules", ".mypy_cache"}


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    pragma_suppressed: int = 0
    #: call-graph export (``--graph-json``); populated only when the
    #: run built a graph (a project rule was selected, or the caller
    #: asked for the export explicitly)
    graph_document: Optional[Dict[str, object]] = None

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_dict(self) -> Dict[str, object]:
        """JSON form (``repro-ffs lint --json``)."""
        return {
            "schema": schemas.LINT_REPORT,
            "files_checked": self.files_checked,
            "pragma_suppressed": self.pragma_suppressed,
            "findings": [f.to_dict() for f in self.findings],
        }


def collect_files(paths: Sequence[Path]) -> List[Path]:
    """Expand paths to the sorted list of ``*.py`` files under them.

    Hidden directories and the cache/VCS directories in ``_SKIP_DIRS``
    are skipped.  A path that is itself a ``.py`` file is taken as-is.
    Raises :class:`FileNotFoundError` naming a path that does not
    exist (the CLI prints it and exits 2).
    """
    files: List[Path] = []
    for path in paths:
        if not path.exists():
            raise FileNotFoundError(f"no such path: {path}")
        if path.is_file():
            if path.suffix == ".py":
                files.append(path)
            continue
        for candidate in sorted(path.rglob("*.py")):
            parts = candidate.relative_to(path).parts
            if any(p in _SKIP_DIRS or p.startswith(".") for p in parts[:-1]):
                continue
            files.append(candidate)
    # De-duplicate while keeping order (overlapping input paths).
    seen = set()
    unique: List[Path] = []
    for f in files:
        if f not in seen:
            seen.add(f)
            unique.append(f)
    return unique


def _rel_path(path: Path, root: Optional[Path]) -> str:
    """Repo-relative posix path when possible, else the path as given."""
    base = root or Path.cwd()
    try:
        return path.resolve().relative_to(base.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def lint_paths(
    paths: Sequence[Path],
    rules: Optional[Iterable[Type[Rule]]] = None,
    root: Optional[Path] = None,
    export_graph: bool = False,
) -> LintResult:
    """Lint every ``*.py`` file under ``paths`` with ``rules``.

    ``rules`` defaults to the full registry.  ``root`` anchors the
    repo-relative paths in findings (defaults to the current
    directory).  ``export_graph`` forces the call graph to be built
    and attached to the result even when no project rule is selected.
    """
    rule_classes = list(rules) if rules is not None else all_rules()
    module_rules = [
        cls() for cls in rule_classes if not issubclass(cls, ProjectRule)
    ]
    project_rules = [
        cls() for cls in rule_classes if issubclass(cls, ProjectRule)
    ]

    result = LintResult()
    raw: List[Finding] = []
    modules: List[ModuleContext] = []
    pragmas_by_rel: Dict[str, PragmaMap] = {}

    for path in collect_files(paths):
        rel = _rel_path(path, root)
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raw.append(Finding(rel, 1, 1, PARSE_ERROR, f"cannot read file: {exc}"))
            continue
        result.files_checked += 1
        try:
            module = build_context(path, rel, source)
        except SyntaxError as exc:
            raw.append(
                Finding(
                    rel,
                    exc.lineno or 1,
                    (exc.offset or 0) + 1,
                    PARSE_ERROR,
                    f"syntax error: {exc.msg}",
                )
            )
            continue

        modules.append(module)
        pragmas = parse_pragmas(source)
        pragmas_by_rel[rel] = pragmas
        for rule in module_rules:
            for finding in rule.check(module):
                if pragmas.suppresses(finding):
                    result.pragma_suppressed += 1
                else:
                    raw.append(finding)

    if (project_rules or export_graph) and modules:
        graph = build_graph(modules)
        if export_graph:
            result.graph_document = graph.to_document()
        project = ProjectContext(
            modules=modules, graph=graph, pragmas=pragmas_by_rel
        )
        for rule in project_rules:
            for finding in rule.check_project(project):
                pragmas = pragmas_by_rel.get(finding.path)
                if pragmas is not None and pragmas.suppresses(finding):
                    result.pragma_suppressed += 1
                else:
                    raw.append(finding)

    result.findings = sorted(raw, key=lambda f: f.sort_key)
    return result
