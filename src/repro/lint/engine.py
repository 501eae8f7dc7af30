"""File collection, parsing, and the suppression pipeline.

:func:`lint_paths` is the whole analyzer as one call: collect ``*.py``
files under the given paths, parse each, run the selected module rules,
build the whole-program call graph and run the project rules
(R101–R104), then drop what an inline pragma waives (a deliberate,
commented waiver at the site).  What survives is the lint failure.
It is two steps, :func:`parse_tree` and :func:`lint_tree`, so a caller
that lints one tree with several rule sets parses it and builds its
call graph once.

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
from repro.lint.graph import CallGraph, build_graph
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


@dataclass
class ParsedTree:
    """The ``*.py`` files under some paths, parsed: what every rule
    reads, independent of which rules run."""

    #: every module that parsed, in collection (path-sorted) order
    modules: List[ModuleContext] = field(default_factory=list)
    #: per-file pragma maps, keyed by repo-relative path
    pragmas: Dict[str, PragmaMap] = field(default_factory=dict)
    #: one non-suppressible ``E000`` finding per file that could not
    #: be read or parsed
    errors: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    _graph: Optional[CallGraph] = None

    @property
    def graph(self) -> CallGraph:
        """The whole-program call graph, built on first use."""
        if self._graph is None:
            self._graph = build_graph(self.modules)
        return self._graph


def parse_tree(paths: Sequence[Path], root: Optional[Path] = None) -> ParsedTree:
    """Collect and parse every ``*.py`` file under ``paths``; ``root``
    anchors the repo-relative paths (defaults to the current
    directory)."""
    tree = ParsedTree()
    for path in collect_files(paths):
        rel = _rel_path(path, root)
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            tree.errors.append(
                Finding(rel, 1, 1, PARSE_ERROR, f"cannot read file: {exc}")
            )
            continue
        tree.files_checked += 1
        try:
            module = build_context(path, rel, source)
        except SyntaxError as exc:
            tree.errors.append(
                Finding(
                    rel,
                    exc.lineno or 1,
                    (exc.offset or 0) + 1,
                    PARSE_ERROR,
                    f"syntax error: {exc.msg}",
                )
            )
            continue
        tree.modules.append(module)
        tree.pragmas[rel] = parse_pragmas(source)
    return tree


def lint_tree(
    tree: ParsedTree,
    rules: Optional[Iterable[Type[Rule]]] = None,
    export_graph: bool = False,
) -> LintResult:
    """Run ``rules`` (default: the full registry) over a parsed tree.

    ``export_graph`` attaches the call graph to the result even when no
    project rule is selected.
    """
    rule_classes = list(rules) if rules is not None else all_rules()
    module_rules = [
        cls() for cls in rule_classes if not issubclass(cls, ProjectRule)
    ]
    project_rules = [
        cls() for cls in rule_classes if issubclass(cls, ProjectRule)
    ]

    result = LintResult(files_checked=tree.files_checked)
    raw: List[Finding] = list(tree.errors)
    pragmas_by_rel = tree.pragmas

    for module in tree.modules:
        pragmas = pragmas_by_rel[module.rel_path]
        for rule in module_rules:
            for finding in rule.check(module):
                if pragmas.suppresses(finding):
                    result.pragma_suppressed += 1
                else:
                    raw.append(finding)

    if (project_rules or export_graph) and tree.modules:
        graph = tree.graph
        if export_graph:
            result.graph_document = graph.to_document()
        project = ProjectContext(
            modules=tree.modules, graph=graph, pragmas=pragmas_by_rel
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


def lint_paths(
    paths: Sequence[Path],
    rules: Optional[Iterable[Type[Rule]]] = None,
    root: Optional[Path] = None,
    export_graph: bool = False,
) -> LintResult:
    """Lint every ``*.py`` file under ``paths`` with ``rules``: the
    whole analyzer as one call (see :func:`parse_tree` and
    :func:`lint_tree`)."""
    return lint_tree(parse_tree(paths, root), rules, export_graph)
