"""R102 — schema registry: every ``family/vN`` tag lives in one place.

Every persisted artifact in this repo is stamped with a schema tag
(``repro.obs.manifest/v2``, ``repro.cache/v1``, ``replint.report/v2``
…) and every reader checks it.  Before :mod:`repro.schemas` existed,
those tags were string literals scattered across writers, readers, and
tests — so bumping a version meant grepping, and a writer/reader skew
(writer stamps v2, a reader still checks v1) was only caught at
runtime, in whichever code path happened to exercise the stale check.

With the central registry this rule can catch drift statically.  Over
the whole linted tree it flags:

* **undeclared tags** — a literal whose family is not declared in
  ``repro/schemas.py``: either a typo or a new artifact that skipped
  the registry;
* **version skew** — a literal whose family is declared but at a
  different version: the classic stale reader/test.  The registry is
  the single source of truth; the literal is wrong by definition;
* **hard-coded tags in library code** — a literal inside ``repro.*``
  even at the *correct* version: library code must import the constant
  (``schemas.MANIFEST``) so the next bump is one edit.  Test files may
  pin the current literal — asserting the on-disk bytes is the point
  of a schema test — but they skew like everything else;
* **orphaned declarations** — a registry family no code or test
  references at all (checked only on tree-wide runs where the
  registry module itself is part of the linted set).

Declarations are harvested from the linted tree's own
``repro/schemas.py`` (string-constant assignments), so fixture trees
in tests carry their own registries; when the registry module is not
part of the run, the installed :data:`repro.schemas.REGISTRY` is the
reference instead.

Docstrings are ignored — prose may name any tag it likes.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.findings import Finding
from repro.lint.project import ProjectContext, ProjectRule
from repro.lint.registry import ModuleContext, register

#: What a schema tag looks like.  Scoped to this repo's namespaces so
#: arbitrary "foo/v1" strings in unrelated code stay quiet.
_TAG_RE = re.compile(r"^(?:repro|replint)(?:\.[a-z0-9_]+)*/v(\d+)$")

#: The registry module, by dotted name.
_REGISTRY_MODULE = "repro.schemas"


def _split(tag: str) -> Tuple[str, int]:
    family, _, version = tag.rpartition("/v")
    return family, int(version)


def _docstring_nodes(tree: ast.Module) -> Set[int]:
    """ids of Constant nodes that are docstrings / bare string stmts."""
    out: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            out.add(id(node.value))
    return out


def harvest_declarations(
    module: ModuleContext,
) -> Dict[str, Tuple[str, int, ast.AST]]:
    """``constant name -> (family, version, node)`` from the registry
    module's top-level string assignments."""
    out: Dict[str, Tuple[str, int, ast.AST]] = {}
    for stmt in module.tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if (
            value is not None
            and isinstance(value, ast.Constant)
            and isinstance(value.value, str)
            and _TAG_RE.match(value.value)
        ):
            for target in targets:
                if isinstance(target, ast.Name):
                    family, version = _split(value.value)
                    out[target.id] = (family, version, stmt)
    return out


@register
class SchemaRegistryRule(ProjectRule):
    __doc__ = __doc__

    rule_id = "R102"
    name = "schema-registry"
    summary = (
        "schema tags must be declared in repro/schemas.py; library code "
        "imports the constant, and no literal may skew from the registry"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        registry_module = project.module_by_name(_REGISTRY_MODULE)
        declarations: Dict[str, Tuple[str, int, Optional[ast.AST]]] = {}
        if registry_module is not None:
            for name, decl in harvest_declarations(registry_module).items():
                declarations[name] = decl
        else:
            from repro import schemas

            for name, tag in schemas.REGISTRY.items():
                family, version = _split(tag)
                declarations[name] = (family, version, None)
        declared: Dict[str, int] = {
            family: version for family, version, _node in declarations.values()
        }

        const_families: Dict[str, str] = {
            name: family
            for name, (family, _version, _node) in declarations.items()
        }
        used_families: Set[str] = set()
        for module in project.modules:
            if module.module_name == _REGISTRY_MODULE:
                continue
            yield from self._check_module(
                module, declared, const_families, used_families
            )

        # Orphans: only judged tree-wide, when the registry itself is in
        # the linted set alongside the code that should use it.
        if registry_module is not None and len(project.modules) > 1:
            for name, (family, _version, node) in sorted(declarations.items()):
                if family not in used_families and node is not None:
                    yield registry_module.finding(
                        self,
                        node,
                        f"schema family '{family}' (constant {name}) is "
                        f"declared but never referenced; delete it or keep "
                        f"a reader for the old artifacts",
                    )

    def _check_module(
        self,
        module: ModuleContext,
        declared: Dict[str, int],
        const_families: Dict[str, str],
        used_families: Set[str],
    ) -> Iterator[Finding]:
        in_library = module.module_name is not None
        docstrings = _docstring_nodes(module.tree)

        # Constant references (schemas.MANIFEST et al.) count as usage.
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Attribute, ast.Name)):
                dotted = module.dotted(node)
                if dotted is not None and dotted.startswith(
                    _REGISTRY_MODULE + "."
                ):
                    const = dotted[len(_REGISTRY_MODULE) + 1 :]
                    family = const_families.get(const)
                    if family is not None:
                        used_families.add(family)

        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and _TAG_RE.match(node.value)
            ):
                continue
            if id(node) in docstrings:
                continue
            family, version = _split(node.value)
            used_families.add(family)
            if family not in declared:
                yield module.finding(
                    self,
                    node,
                    f"undeclared schema tag '{node.value}'; declare the "
                    f"family in repro/schemas.py and import the constant",
                )
            elif version != declared[family]:
                yield module.finding(
                    self,
                    node,
                    f"schema version skew: '{node.value}' but the registry "
                    f"declares '{family}/v{declared[family]}'",
                )
            elif in_library:
                yield module.finding(
                    self,
                    node,
                    f"hard-coded schema tag '{node.value}' in library code; "
                    f"import the constant from repro.schemas instead",
                )
