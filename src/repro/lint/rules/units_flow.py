"""R103 — unit hygiene: frag/block/sector/byte quantities never mix.

The simulator juggles four address spaces — bytes, 512-byte sectors,
1 KB fragments, 8 KB blocks — and the conversion bugs between them are
the classic FFS-reproduction failure mode: an offset in frags added to
a length in blocks type-checks, runs, and quietly corrupts every
downstream layout score.

The repo's convention is that unit-carrying identifiers advertise their
unit with a suffix (``start_frag``, ``len_blocks``, ``offset_bytes``;
``_frag``/``_frags``, ``_block``/``_blocks``, ``_sector``/``_sectors``,
``_byte``/``_bytes``) and conversions go through :mod:`repro.units`.
``nfrags`` has no underscore and does not participate.  R103 checks
the convention inside expressions and across call boundaries:

1. **Additive arithmetic.**  ``+`` and ``-`` (including augmented
   assignment) between two plain names or attributes carrying
   conflicting suffixes is a finding, anywhere in any linted file::

       pos = start_frag + len_blocks          # R103: frag + block
       pos = start_frag + frags_per_block * len_blocks   # ok: converted

   Multiplication and division are how conversions are *written*, so
   they are always allowed; subscripts like ``free_in_block[b] -
   nfrags`` are containers indexed by one unit holding another, which
   is fine.

2. **Return units.**  Each function's return unit is inferred from its
   ``return`` expressions — identifier suffixes, additive arithmetic
   (which preserves a unit), and calls to already-solved functions.
   The solver iterates to a fixed point, so a chain like ``return
   helper(x)`` → ``return base_frag + pad`` types the whole chain.
   Multiplication and division erase the unit.  A function whose
   returns disagree stays untyped.

3. **Argument checking.**  At every resolved call site, a positional
   or keyword argument with a known unit is checked against the
   callee's parameter *name*: passing ``len_blocks`` to a parameter
   named ``nfrags`` is a finding.  Only precise edges are checked
   (direct calls, constructors, typed/self dispatch) — the name-based
   CHA fallback is too coarse to accuse anyone with.

4. **Assignment checking.**  A call whose solved return unit conflicts
   with the suffix of the name it is assigned to is a finding.

When the mix is intentional (a raw count reused across spaces), waive
at the line with a reason::

    nframes = free_frags(cg)  # replint: disable=R103  (frames == frags here)
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.dataflow import FixedPointError, solve
from repro.lint.findings import Finding
from repro.lint.graph import CallGraph, CallSite
from repro.lint.project import ProjectContext, ProjectRule
from repro.lint.registry import ModuleContext, register

#: suffix -> canonical unit
_UNIT_SUFFIXES = {
    "frag": "frag",
    "frags": "frag",
    "block": "block",
    "blocks": "block",
    "sector": "sector",
    "sectors": "sector",
    "byte": "byte",
    "bytes": "byte",
}

#: Site kinds precise enough to check arguments against — everything
#: but CHA (name-based guessing), EXTERNAL, and DYNAMIC.
_PRECISE_KINDS = frozenset({"direct", "constructor", "self", "typed"})


def _ident_unit(ident: str) -> Optional[str]:
    """Unit advertised by an identifier's ``_frag``-style suffix."""
    if "_" not in ident:
        return None
    return _UNIT_SUFFIXES.get(ident.rsplit("_", 1)[1].lower())


def _node_unit(node: ast.AST) -> Optional[str]:
    """Unit of a plain name or attribute; subscripts and calls have none."""
    if isinstance(node, ast.Name):
        return _ident_unit(node.id)
    if isinstance(node, ast.Attribute):
        return _ident_unit(node.attr)
    return None


def _sites_by_node(graph: CallGraph, qualname: str) -> Dict[int, CallSite]:
    return {
        id(site.node): site
        for site in graph.sites(qualname)
        if site.node is not None
    }


def _expr_unit(
    node: ast.AST,
    sitemap: Dict[int, CallSite],
    facts: Dict[str, Optional[str]],
) -> Optional[str]:
    """Unit of an expression, or ``None`` when unknown/erased."""
    direct = _node_unit(node)
    if direct is not None:
        return direct
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        units = {
            _expr_unit(node.left, sitemap, facts),
            _expr_unit(node.right, sitemap, facts),
        } - {None}
        return units.pop() if len(units) == 1 else None
    if isinstance(node, ast.UnaryOp):
        return _expr_unit(node.operand, sitemap, facts)
    if isinstance(node, ast.IfExp):
        units = {
            _expr_unit(node.body, sitemap, facts),
            _expr_unit(node.orelse, sitemap, facts),
        } - {None}
        return units.pop() if len(units) == 1 else None
    if isinstance(node, ast.Call):
        site = sitemap.get(id(node))
        if site is not None and site.targets and site.kind in _PRECISE_KINDS:
            units = {facts.get(t) for t in site.targets} - {None}
            if len(units) == 1:
                return units.pop()
    return None


def _own_nodes(fn_node: ast.AST) -> Iterator[ast.AST]:
    """Function-body walk that skips nested defs (their own nodes)."""
    stack = list(ast.iter_child_nodes(fn_node))
    while stack:
        node = stack.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def solve_return_units(graph: CallGraph) -> Dict[str, Optional[str]]:
    """Fixed-point return-unit facts for every project function."""
    sitemaps = {q: _sites_by_node(graph, q) for q in graph.functions}

    def initial(_qualname: str) -> Optional[str]:
        return None

    def transfer(
        qualname: str, facts: Dict[str, Optional[str]]
    ) -> Optional[str]:
        fn = graph.functions[qualname]
        if not isinstance(fn.node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return None
        units: Set[Optional[str]] = set()
        saw_return = False
        for node in _own_nodes(fn.node):
            if isinstance(node, ast.Return) and node.value is not None:
                saw_return = True
                units.add(_expr_unit(node.value, sitemaps[qualname], facts))
        if not saw_return:
            return None
        known = units - {None}
        # Every return must agree; a single untyped return keeps the
        # typed ones (the common "early None" guard shape).
        return known.pop() if len(known) == 1 else None

    try:
        return solve(graph, initial, transfer)
    except FixedPointError:  # pragma: no cover - defensive
        return {q: None for q in graph.functions}


@register
class UnitFlowRule(ProjectRule):
    __doc__ = __doc__

    rule_id = "R103"
    name = "unit-flow"
    summary = (
        "_frag/_block/_sector/_byte suffixes must agree: in +/- operands, "
        "arguments vs. parameter names, returned vs. assigned names"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for module in project.modules:
            yield from self._check_additive(module)
        graph = project.graph
        returns = solve_return_units(graph)
        for qualname in sorted(graph.functions):
            fn = graph.functions[qualname]
            module = project.module_by_name(fn.module)
            if module is None:
                continue
            if not isinstance(fn.node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            sitemap = _sites_by_node(graph, qualname)
            yield from self._check_arguments(module, graph, sitemap, returns)
            yield from self._check_assignments(
                module, fn.node, sitemap, returns
            )

    # -- +/- between conflicting suffixes ------------------------------

    def _check_additive(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.BinOp):
                left, right = node.left, node.right
            elif isinstance(node, ast.AugAssign):
                left, right = node.target, node.value
            else:
                continue
            if not isinstance(node.op, (ast.Add, ast.Sub)):
                continue
            left_unit, right_unit = _node_unit(left), _node_unit(right)
            if left_unit and right_unit and left_unit != right_unit:
                yield module.finding(
                    self,
                    node,
                    f"additive arithmetic mixes {left_unit}s with "
                    f"{right_unit}s; convert explicitly via repro.units "
                    f"before combining",
                )

    # -- argument units vs. parameter names ----------------------------

    def _check_arguments(
        self,
        module: ModuleContext,
        graph: CallGraph,
        sitemap: Dict[int, CallSite],
        returns: Dict[str, Optional[str]],
    ) -> Iterator[Finding]:
        for site in sitemap.values():
            if site.kind not in _PRECISE_KINDS or not site.targets:
                continue
            call = site.node
            if call is None:
                continue
            for index, arg in enumerate(call.args):
                if isinstance(arg, ast.Starred):
                    break
                arg_unit = _expr_unit(arg, sitemap, returns)
                if arg_unit is None:
                    continue
                param = self._param_at(graph, site, index)
                if param is None:
                    continue
                param_unit = _ident_unit(param)
                if param_unit is not None and param_unit != arg_unit:
                    yield module.finding(
                        self,
                        arg,
                        f"argument carries {arg_unit}s but parameter "
                        f"'{param}' of {site.callee_text} expects "
                        f"{param_unit}s; convert via repro.units",
                    )
            for keyword in call.keywords:
                if keyword.arg is None:
                    continue
                arg_unit = _expr_unit(keyword.value, sitemap, returns)
                param_unit = _ident_unit(keyword.arg)
                if (
                    arg_unit is not None
                    and param_unit is not None
                    and param_unit != arg_unit
                    and self._any_target_has_param(graph, site, keyword.arg)
                ):
                    yield module.finding(
                        self,
                        keyword.value,
                        f"keyword argument '{keyword.arg}' expects "
                        f"{param_unit}s but the value carries {arg_unit}s; "
                        f"convert via repro.units",
                    )

    @staticmethod
    def _param_at(
        graph: CallGraph, site: CallSite, index: int
    ) -> Optional[str]:
        """The parameter name at positional ``index``, when every
        resolved target agrees on it (else ``None``: too ambiguous)."""
        names: Set[str] = set()
        for target in site.targets:
            fn = graph.functions.get(target)
            if fn is None:
                return None
            params: Tuple[str, ...] = fn.params
            if params and params[0] in ("self", "cls"):
                params = params[1:]
            if index >= len(params):
                return None
            names.add(params[index])
        return names.pop() if len(names) == 1 else None

    @staticmethod
    def _any_target_has_param(
        graph: CallGraph, site: CallSite, name: str
    ) -> bool:
        for target in site.targets:
            fn = graph.functions.get(target)
            if fn is not None and name in fn.params:
                return True
        return False

    # -- returned units vs. assigned names -----------------------------

    def _check_assignments(
        self,
        module: ModuleContext,
        fn_node: ast.AST,
        sitemap: Dict[int, CallSite],
        returns: Dict[str, Optional[str]],
    ) -> Iterator[Finding]:
        for node in _own_nodes(fn_node):
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None or not isinstance(value, ast.Call):
                continue
            site = sitemap.get(id(value))
            if site is None or site.kind not in _PRECISE_KINDS:
                continue
            ret_unit = _expr_unit(value, sitemap, returns)
            if ret_unit is None:
                continue
            for target in targets:
                target_unit = _node_unit(target)
                if target_unit is not None and target_unit != ret_unit:
                    yield module.finding(
                        self,
                        node,
                        f"{site.callee_text}() returns {ret_unit}s but is "
                        f"assigned to a name carrying {target_unit}s; "
                        f"convert via repro.units",
                    )
