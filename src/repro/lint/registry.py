"""Rule base class and registry.

A rule is a class with a stable id (``R001``), a short name, a one-line
summary, and a ``check`` method that walks one parsed module and yields
findings.  Rules register themselves with the :func:`register` decorator
at import time; the CLI's ``--list-rules`` and ``--explain`` read
straight from the registry, so the rule's docstring *is* its
documentation — there is no second place to keep in sync.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Type

from repro.lint.findings import Finding


@dataclass
class ModuleContext:
    """One parsed module, plus everything a rule needs to judge it.

    ``module_name`` is the dotted name under the ``repro`` package
    (``repro.ffs.bitmap``), or ``None`` for files outside any repro
    package — fixture snippets in tests, scripts — which rules treat as
    library code with no exemptions.
    """

    path: Path
    rel_path: str
    source: str
    tree: ast.Module
    module_name: Optional[str]
    #: local name -> fully dotted origin, built from import statements:
    #: ``import numpy.random as npr`` maps ``npr -> numpy.random``;
    #: ``from datetime import datetime as dt`` maps ``dt ->
    #: datetime.datetime``.
    aliases: Dict[str, str] = field(default_factory=dict)

    def finding(self, rule: "Rule", node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node`` (1-based line/col)."""
        return Finding(
            path=self.rel_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=rule.rule_id,
            message=message,
        )

    def dotted(self, node: ast.AST) -> Optional[str]:
        """Resolve a Name/Attribute chain to a dotted path, expanding
        import aliases at the base.

        ``dt.now`` with ``from datetime import datetime as dt`` resolves
        to ``datetime.datetime.now``.  Returns ``None`` for anything
        other than a plain attribute chain rooted at a name.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.aliases.get(node.id, node.id)
        parts.append(base)
        return ".".join(reversed(parts))

    def in_package(self, prefix: str) -> bool:
        """True when this module lives at or under ``prefix``."""
        if self.module_name is None:
            return False
        return self.module_name == prefix or self.module_name.startswith(prefix + ".")


class Rule:
    """Base class for lint rules.

    Subclasses set ``rule_id`` / ``name`` / ``summary`` and implement
    :meth:`check`.  The class docstring becomes the ``--explain`` text:
    write it for the engineer who just got flagged — what contract the
    rule protects, why it matters, and what the compliant form looks
    like.
    """

    rule_id: str = ""
    name: str = ""
    summary: str = ""

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    @classmethod
    def explain(cls) -> str:
        """Full documentation for ``--explain`` (the class docstring)."""
        import inspect

        return inspect.cleandoc(cls.__doc__ or cls.summary)


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the registry (id must be unique)."""
    if not cls.rule_id:
        raise ValueError(f"rule {cls.__name__} has no rule_id")
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_rules() -> List[Type[Rule]]:
    """Registered rule classes, ordered by id."""
    return [_REGISTRY[rid] for rid in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Optional[Type[Rule]]:
    """Look up one rule class by id (``None`` when unknown)."""
    return _REGISTRY.get(rule_id)


def build_context(path: Path, rel_path: str, source: str) -> ModuleContext:
    """Parse ``source`` and assemble the per-module context.

    Raises :class:`SyntaxError` when the file does not parse; the engine
    turns that into a non-suppressible ``E000`` finding.
    """
    tree = ast.parse(source, filename=str(path))
    return ModuleContext(
        path=path,
        rel_path=rel_path,
        source=source,
        tree=tree,
        module_name=_module_name(path),
        aliases=_collect_aliases(tree),
    )


def _module_name(path: Path) -> Optional[str]:
    """Dotted module name under the rightmost ``repro`` package.

    Only a ``repro`` directory holding ``__init__.py`` counts, so a
    checkout that merely sits in a directory named ``repro`` gets the
    same names whether it is linted by absolute or relative path.
    """
    parts = path.parts
    for idx in range(len(parts) - 2, -1, -1):
        if parts[idx] == "repro" and Path(*parts[: idx + 1], "__init__.py").is_file():
            break
    else:
        return None
    mod_parts = list(parts[idx:])
    last = mod_parts[-1]
    if last.endswith(".py"):
        last = last[:-3]
        if last == "__init__":
            mod_parts = mod_parts[:-1]
        else:
            mod_parts[-1] = last
    return ".".join(mod_parts)


def _collect_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to their dotted import origin (module level only)."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases
