"""Whole-program import/call graph for the graph-powered lint rules.

replint's original rules judge one module at a time, which is exactly
as far as a syntactic check can see.  The v2 rules (R101 transitive
determinism, R103 interprocedural unit hygiene) need to answer a harder
question: *what can this function reach?*  This module builds the
project-wide call graph they walk.

The builder is AST-only — nothing is imported or executed — and aims to
resolve the call shapes this codebase actually uses:

* direct calls to module-level functions, through ``import`` aliases
  (``from repro.aging.replay import age_file_system``,
  ``from repro.aging import replay; replay.age_file_system(...)``);
* constructor calls (``FileSystem(...)`` resolves to
  ``FileSystem.__init__`` and, for dataclasses, ``__post_init__``);
* ``self.method()`` through the enclosing class, its project bases, and
  any project subclass override (the receiver may be a subclass
  instance);
* attribute calls through *typed* receivers: parameter annotations,
  ``AnnAssign`` locals, ``self.attr`` types harvested from ``__init__``
  assignments and dataclass fields, and the return annotations of
  already-resolved callees (``tr = obs.tracer_or_none()`` types ``tr``
  as ``Tracer``) — chains like ``self.fs.sb.cgs`` resolve link by link;
* when the receiver's type is unknown, a conservative class-hierarchy
  fallback: the call targets *every* project method of that name.

What cannot be named at all — calling a parameter, a lambda, the result
of another call — becomes a ``dynamic`` call site: the lattice bottom.
Rules must treat a dynamic site as "anything may happen"; R101 reports
a function with dynamic sites on a protected path as *unprovable*
rather than silently passing it.

``repro-ffs lint --graph-json FILE`` exports the whole structure
(schema :data:`repro.schemas.LINT_GRAPH`) for offline inspection.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro import schemas
from repro.lint.registry import ModuleContext

#: Call-site resolution kinds, from most to least precise.
DIRECT = "direct"  # module-level function, resolved by name/alias
CONSTRUCTOR = "constructor"  # class instantiation
SELF = "self"  # self.method() through the enclosing class
TYPED = "typed"  # receiver type known from annotations
CHA = "cha"  # name-based fallback over every class's methods
EXTERNAL = "external"  # resolves outside the project (stdlib, builtin)
DYNAMIC = "dynamic"  # cannot be named: the lattice bottom

_BUILTIN_NAMES = frozenset(dir(builtins))


@dataclass
class FunctionNode:
    """One function or method in the project."""

    qualname: str  #: e.g. ``repro.aging.replay.AgingReplayer.replay``
    module: str
    rel_path: str
    name: str
    lineno: int
    end_lineno: int
    is_method: bool
    class_name: Optional[str]  #: enclosing class qualname (methods only)
    params: Tuple[str, ...]  #: positional-capable parameter names, in order
    decorators: Tuple[str, ...]
    node: ast.AST = field(repr=False)
    return_annotation: Optional[ast.expr] = field(default=None, repr=False)


@dataclass
class CallSite:
    """One call expression inside a function body."""

    caller: str
    lineno: int
    col: int
    callee_text: str  #: rendered callee for diagnostics (best effort)
    kind: str
    #: Resolved project targets (function qualnames).  Several targets
    #: mean conservative dispatch: any of them may be the callee.
    targets: Tuple[str, ...] = ()
    #: Fully dotted external name for ``external`` sites, when known.
    external: Optional[str] = None
    node: Optional[ast.Call] = field(default=None, repr=False)


@dataclass
class ClassInfo:
    """One project class: methods, bases, and attribute types."""

    qualname: str
    module: str
    name: str
    lineno: int
    #: base-class qualnames resolved to project classes
    bases: Tuple[str, ...] = ()
    #: method name -> function qualname
    methods: Dict[str, str] = field(default_factory=dict)
    #: attribute name -> class qualname (from annotations/assignments)
    attr_types: Dict[str, Optional[str]] = field(default_factory=dict)


class CallGraph:
    """The resolved project: functions, classes, and call edges."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionNode] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.calls: Dict[str, List[CallSite]] = {}
        #: method bare name -> every project function qualname with it
        self.methods_by_name: Dict[str, List[str]] = {}
        #: class qualname -> direct project subclasses
        self.subclasses: Dict[str, List[str]] = {}
        #: module dotted name -> its parsed context (annotation lookups)
        self.modules: Dict[str, ModuleContext] = {}
        #: class bare name -> qualnames (re-export tolerant matching)
        self.classes_by_bare: Dict[str, List[str]] = {}
        #: module -> every project module it (transitively) imports,
        #: itself included.  Bounds the CHA fallback: a module cannot
        #: call a method of a class it could never have imported.
        self.import_closure: Dict[str, Set[str]] = {}
        self._callers: Optional[Dict[str, List[str]]] = None

    # -- queries -------------------------------------------------------

    def sites(self, qualname: str) -> List[CallSite]:
        """Call sites inside ``qualname`` (empty for unknown names)."""
        return self.calls.get(qualname, [])

    def callers_of(self, qualname: str) -> List[str]:
        """Functions with at least one site targeting ``qualname``."""
        if self._callers is None:
            callers: Dict[str, Set[str]] = {}
            for caller, sites in self.calls.items():
                for site in sites:
                    for target in site.targets:
                        callers.setdefault(target, set()).add(caller)
            self._callers = {
                name: sorted(who) for name, who in callers.items()
            }
        return self._callers.get(qualname, [])

    def reachable_from(self, roots: Iterable[str]) -> List[str]:
        """Every function reachable from ``roots`` via resolved edges,
        in deterministic (sorted-discovery) order, roots included."""
        seen: Set[str] = set()
        order: List[str] = []
        frontier = sorted(set(roots) & set(self.functions))
        while frontier:
            nxt: Set[str] = set()
            for name in frontier:
                if name in seen:
                    continue
                seen.add(name)
                order.append(name)
                for site in self.sites(name):
                    for target in site.targets:
                        if target not in seen:
                            nxt.add(target)
            frontier = sorted(nxt)
        return order

    def method_candidates(self, class_qualname: str, method: str) -> List[str]:
        """Resolve ``method`` on ``class_qualname``: the class's own or
        inherited definition, plus every subclass override (the static
        type may be a base of the runtime type)."""
        found: List[str] = []
        inherited = self._lookup_inherited(class_qualname, method, set())
        if inherited is not None:
            found.append(inherited)
        for sub in self._all_subclasses(class_qualname):
            info = self.classes.get(sub)
            if info is not None and method in info.methods:
                found.append(info.methods[method])
        return sorted(set(found))

    def _lookup_inherited(
        self, class_qualname: str, method: str, seen: Set[str]
    ) -> Optional[str]:
        if class_qualname in seen:
            return None
        seen.add(class_qualname)
        info = self.classes.get(class_qualname)
        if info is None:
            return None
        if method in info.methods:
            return info.methods[method]
        for base in info.bases:
            found = self._lookup_inherited(base, method, seen)
            if found is not None:
                return found
        return None

    def _all_subclasses(self, class_qualname: str) -> List[str]:
        out: List[str] = []
        frontier = list(self.subclasses.get(class_qualname, []))
        seen: Set[str] = set()
        while frontier:
            cls = frontier.pop()
            if cls in seen:
                continue
            seen.add(cls)
            out.append(cls)
            frontier.extend(self.subclasses.get(cls, []))
        return sorted(out)

    def attr_type(self, class_qualname: str, attr: str) -> Optional[str]:
        """Type of ``attr`` on ``class_qualname``, searching bases."""
        seen: Set[str] = set()
        frontier = [class_qualname]
        while frontier:
            cls = frontier.pop(0)
            if cls in seen:
                continue
            seen.add(cls)
            info = self.classes.get(cls)
            if info is None:
                continue
            if attr in info.attr_types:
                return info.attr_types[attr]
            frontier.extend(info.bases)
        return None

    # -- export --------------------------------------------------------

    def to_document(self) -> Dict[str, object]:
        """JSON form for ``repro-ffs lint --graph-json``."""
        functions = [
            {
                "qualname": fn.qualname,
                "path": fn.rel_path,
                "line": fn.lineno,
                "class": fn.class_name,
                "params": list(fn.params),
                "decorators": list(fn.decorators),
            }
            for _, fn in sorted(self.functions.items())
        ]
        calls = []
        kinds: Dict[str, int] = {}
        for caller in sorted(self.calls):
            for site in self.calls[caller]:
                kinds[site.kind] = kinds.get(site.kind, 0) + 1
                calls.append(
                    {
                        "caller": caller,
                        "line": site.lineno,
                        "col": site.col,
                        "callee": site.callee_text,
                        "kind": site.kind,
                        "targets": list(site.targets),
                        "external": site.external,
                    }
                )
        return {
            "schema": schemas.LINT_GRAPH,
            "functions": functions,
            "classes": sorted(self.classes),
            "calls": calls,
            "stats": {
                "functions": len(self.functions),
                "classes": len(self.classes),
                "call_sites": sum(len(s) for s in self.calls.values()),
                "by_kind": {k: kinds[k] for k in sorted(kinds)},
            },
        }


# ---------------------------------------------------------------------------
# Building
# ---------------------------------------------------------------------------


def build_graph(modules: Sequence[ModuleContext]) -> CallGraph:
    """Index every module and resolve every call site.

    Modules without a dotted name (files outside any ``repro`` package)
    are skipped: they cannot be imported, so nothing can call into them
    and their own calls cannot leave the file usefully.

    Build order matters: the function/class index and the bare-name
    class map come first (so cross-module forward references resolve),
    then class facts (bases, attribute types), then the subclass map,
    and only then call resolution — which consumes all of the above.
    """
    graph = CallGraph()
    indexed = [m for m in modules if m.module_name is not None]
    for module in indexed:
        _index_module(graph, module)
    for qualname, info in graph.classes.items():
        graph.classes_by_bare.setdefault(info.name, []).append(qualname)
    _compute_import_closure(graph)
    for module in indexed:
        _harvest_class_facts(graph, module)
    for qualname in sorted(graph.classes):
        for base in graph.classes[qualname].bases:
            graph.subclasses.setdefault(base, []).append(qualname)
    for module in indexed:
        for qualname in sorted(graph.functions):
            fn = graph.functions[qualname]
            if fn.module != module.module_name:
                continue
            graph.calls[qualname] = _FunctionResolver(graph, module, fn).run()
    return graph


def _render_callee(node: ast.expr) -> str:
    """Best-effort rendering of a callee expression for diagnostics."""
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return "<expr>"


def _param_names(args: ast.arguments) -> Tuple[str, ...]:
    names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
    return tuple(names)


def _index_module(graph: CallGraph, module: ModuleContext) -> None:
    prefix = module.module_name
    if prefix is None:
        return
    graph.modules[prefix] = module

    def add_function(
        node: "ast.FunctionDef | ast.AsyncFunctionDef",
        qualname: str,
        class_qualname: Optional[str],
    ) -> None:
        decorators = tuple(
            module.dotted(d) or _render_callee(d) for d in node.decorator_list
        )
        graph.functions[qualname] = FunctionNode(
            qualname=qualname,
            module=prefix,
            rel_path=module.rel_path,
            name=node.name,
            lineno=node.lineno,
            end_lineno=getattr(node, "end_lineno", node.lineno) or node.lineno,
            is_method=class_qualname is not None,
            class_name=class_qualname,
            params=_param_names(node.args),
            decorators=decorators,
            node=node,
            return_annotation=node.returns,
        )
        if class_qualname is not None:
            graph.methods_by_name.setdefault(node.name, []).append(qualname)
        # Nested defs become their own nodes under the parent's name.
        for child in node.body:
            walk(child, qualname, None)

    def add_class(node: ast.ClassDef, qualname: str) -> None:
        info = ClassInfo(
            qualname=qualname,
            module=prefix,
            name=node.name,
            lineno=node.lineno,
        )
        graph.classes[qualname] = info
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method_qual = f"{qualname}.{child.name}"
                info.methods[child.name] = method_qual
                add_function(child, method_qual, qualname)
            elif isinstance(child, ast.AnnAssign) and isinstance(
                child.target, ast.Name
            ):
                # Dataclass fields / annotated class attributes.
                info.attr_types[child.target.id] = _annotation_class(
                    child.annotation, module, graph
                )
            elif isinstance(child, ast.ClassDef):
                add_class(child, f"{qualname}.{child.name}")

    def walk(node: ast.stmt, parent_qual: str, class_qual: Optional[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            add_function(node, f"{parent_qual}.{node.name}", class_qual)
        elif isinstance(node, ast.ClassDef):
            add_class(node, f"{parent_qual}.{node.name}")
        elif isinstance(node, (ast.If, ast.Try, ast.With, ast.For, ast.While)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    walk(child, parent_qual, class_qual)

    for stmt in module.tree.body:
        walk(stmt, prefix, None)


def _compute_import_closure(graph: CallGraph) -> None:
    """Transitive project-module imports, from each module's aliases.

    An alias target like ``repro.ffs.filesystem.FileSystem`` contributes
    its longest known module prefix (``repro.ffs.filesystem``).  Package
    ``__init__`` re-exports mean importing ``repro.ffs`` also pulls in
    whatever ``repro.ffs`` itself imports, which the closure captures
    naturally.
    """
    known = set(graph.modules)
    direct: Dict[str, Set[str]] = {}
    for name, module in graph.modules.items():
        imports = {name}
        for target in module.aliases.values():
            probe = target
            while probe:
                if probe in known:
                    imports.add(probe)
                    break
                if "." not in probe:
                    break
                probe = probe.rsplit(".", 1)[0]
        direct[name] = imports
    for name in sorted(known):
        closure: Set[str] = set()
        frontier = [name]
        while frontier:
            current = frontier.pop()
            if current in closure:
                continue
            closure.add(current)
            frontier.extend(direct.get(current, ()))
        graph.import_closure[name] = closure


def resolve_class_name(graph: CallGraph, dotted: str) -> Optional[str]:
    """Match a dotted or bare class reference to a project class.

    Exact qualname first; then re-export tolerant matching by bare name
    when that bare name is unique project-wide (``from repro.ffs import
    FileSystem`` re-exports ``repro.ffs.filesystem.FileSystem``).
    """
    if dotted in graph.classes:
        return dotted
    bare = dotted.rsplit(".", 1)[-1]
    candidates = graph.classes_by_bare.get(bare, [])
    if len(candidates) == 1:
        return candidates[0]
    return None


_OPTIONAL_WRAPPERS = {"Optional", "typing.Optional"}


def _annotation_class(
    annotation: Optional[ast.expr], module: ModuleContext, graph: CallGraph
) -> Optional[str]:
    """Resolve a type annotation to a project class qualname.

    Handles ``X``, ``"X"`` (string annotations), ``Optional[X]``,
    ``X | None``, and nested quoting.  Container types (``List[X]``,
    ``Dict[...]``) resolve to ``None``: the receiver is the container,
    not the element, and container methods are builtins.
    """
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            parsed = ast.parse(annotation.value.strip(), mode="eval")
        except SyntaxError:
            return None
        return _annotation_class(parsed.body, module, graph)
    if isinstance(annotation, ast.Subscript):
        head = module.dotted(annotation.value)
        if head is not None and head.rsplit(".", 1)[-1] == "Optional":
            return _annotation_class(annotation.slice, module, graph)
        return None
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        left = _annotation_class(annotation.left, module, graph)
        if left is not None:
            return left
        return _annotation_class(annotation.right, module, graph)
    dotted = module.dotted(annotation)
    if dotted is None or dotted == "None":
        return None
    return resolve_class_name(graph, dotted)


def _harvest_class_facts(graph: CallGraph, module: ModuleContext) -> None:
    """Fill in class bases and ``self.attr`` types for one module."""
    if module.module_name is None:
        return

    def class_for(node: ast.ClassDef, qualname: str) -> None:
        info = graph.classes.get(qualname)
        if info is None:
            return
        bases: List[str] = []
        for base in node.bases:
            dotted = module.dotted(base)
            if dotted is None:
                continue
            resolved = resolve_class_name(graph, dotted)
            if resolved is not None:
                bases.append(resolved)
        info.bases = tuple(bases)

        init_qual = info.methods.get("__init__")
        init = graph.functions.get(init_qual) if init_qual else None
        if init is not None and isinstance(
            init.node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            param_types: Dict[str, Optional[str]] = {}
            fn_node = init.node
            for arg in list(fn_node.args.posonlyargs) + list(fn_node.args.args):
                param_types[arg.arg] = _annotation_class(
                    arg.annotation, module, graph
                )
            for kwarg in fn_node.args.kwonlyargs:
                param_types[kwarg.arg] = _annotation_class(
                    kwarg.annotation, module, graph
                )
            for stmt in ast.walk(fn_node):
                target: Optional[ast.expr] = None
                value: Optional[ast.expr] = None
                ann: Optional[str] = None
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target, value = stmt.targets[0], stmt.value
                elif isinstance(stmt, ast.AnnAssign):
                    target, value = stmt.target, stmt.value
                    ann = _annotation_class(stmt.annotation, module, graph)
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    attr = target.attr
                    inferred = ann
                    if inferred is None and isinstance(value, ast.Name):
                        inferred = param_types.get(value.id)
                    if inferred is None and isinstance(value, ast.Call):
                        dotted = module.dotted(value.func)
                        if dotted is not None:
                            inferred = resolve_class_name(graph, dotted)
                    existing = info.attr_types.get(attr, "unset")
                    if existing == "unset":
                        info.attr_types[attr] = inferred
                    elif existing != inferred:
                        # Conflicting assignments: give up on this attr.
                        info.attr_types[attr] = None

    prefix = module.module_name

    def walk(node: ast.stmt, parent_qual: str) -> None:
        if isinstance(node, ast.ClassDef):
            class_for(node, f"{parent_qual}.{node.name}")
            for child in node.body:
                walk(child, f"{parent_qual}.{node.name}")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for child in node.body:
                walk(child, f"{parent_qual}.{node.name}")
        elif isinstance(node, (ast.If, ast.Try, ast.With, ast.For, ast.While)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    walk(child, parent_qual)

    for stmt in module.tree.body:
        walk(stmt, prefix)


class _FunctionResolver:
    """Resolves every call inside one function body."""

    def __init__(
        self,
        graph: CallGraph,
        module: ModuleContext,
        fn: FunctionNode,
    ) -> None:
        self.graph = graph
        self.module = module
        self.fn = fn
        #: local name -> project class qualname (the receiver-type env)
        self.types: Dict[str, Optional[str]] = {}
        #: local name -> class qualname for names bound to the class
        #: *object* itself (``cls`` in classmethods): calling one is a
        #: constructor call, not an instance-method call.
        self.class_objects: Dict[str, str] = {}
        #: local names that hold something callable-but-unnamed
        self.opaque: Set[str] = set()
        self.sites: List[CallSite] = []
        self._seed_param_types()

    def _seed_param_types(self) -> None:
        node = self.fn.node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        args = node.args
        for arg in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
        ):
            if arg.arg == "self" and self.fn.is_method:
                self.types["self"] = self.fn.class_name
                continue
            if (
                arg.arg == "cls"
                and self.fn.is_method
                and self.fn.class_name is not None
            ):
                # ``cls`` in a classmethod: calling it constructs the
                # enclosing class (or a subclass — dispatch handled by
                # the constructor targets).
                self.class_objects["cls"] = self.fn.class_name
                continue
            resolved = _annotation_class(arg.annotation, self.module, self.graph)
            if resolved is not None:
                self.types[arg.arg] = resolved
            else:
                # A parameter is never resolvable as a direct function:
                # calling it is a dynamic site.
                self.opaque.add(arg.arg)

    def _enclosing_function_scopes(self) -> List[str]:
        """Qualname prefixes of enclosing *function* scopes, innermost
        first.  Class scopes are skipped: a bare name inside a method
        does not see sibling methods."""
        scopes: List[str] = []
        scope = self.fn.qualname
        module_name = self.module.module_name or ""
        while "." in scope and scope != module_name:
            if scope == self.fn.qualname or (
                scope in self.graph.functions and scope not in self.graph.classes
            ):
                scopes.append(scope)
            scope = scope.rsplit(".", 1)[0]
        return scopes

    # -- typing helpers -------------------------------------------------

    def _expr_class(self, node: ast.expr) -> Optional[str]:
        """Project class of ``node``'s value, when statically known."""
        if isinstance(node, ast.Name):
            return self.types.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self._expr_class(node.value)
            if base is not None:
                return self.graph.attr_type(base, node.attr)
            return None
        if isinstance(node, ast.Call):
            resolved = self._resolve_call_targets(node)
            if resolved is None:
                return None
            kind, targets, _ = resolved
            if kind == CONSTRUCTOR:
                # Constructor target list holds __init__/__post_init__;
                # the value's class is their enclosing class.
                for target in targets:
                    fn = self.graph.functions.get(target)
                    if fn is not None and fn.class_name is not None:
                        return fn.class_name
                return None
            classes = {
                self._return_class(t) for t in targets
            } - {None}
            if len(classes) == 1:
                return classes.pop()
        return None

    def _return_class(self, qualname: str) -> Optional[str]:
        fn = self.graph.functions.get(qualname)
        if fn is None or fn.return_annotation is None:
            return None
        owner_module = self._module_of(fn)
        if owner_module is None:
            return None
        return _annotation_class(fn.return_annotation, owner_module, self.graph)

    def _module_of(self, fn: FunctionNode) -> Optional[ModuleContext]:
        return self.graph.modules.get(fn.module)

    # -- resolution -----------------------------------------------------

    def _resolve_call_targets(
        self, call: ast.Call
    ) -> Optional[Tuple[str, Tuple[str, ...], Optional[str]]]:
        """Classify one call: ``(kind, targets, external_name)``.

        ``None`` means dynamic — nothing nameable to resolve.
        """
        func = call.func
        graph = self.graph
        module = self.module

        if isinstance(func, ast.Name):
            name = func.id
            if name in self.class_objects:
                return self._constructor(self.class_objects[name])
            if name in self.opaque:
                return None
            # Nested function in this or an enclosing function scope?
            for scope in self._enclosing_function_scopes():
                nested = f"{scope}.{name}"
                if nested in graph.functions:
                    return (DIRECT, (nested,), None)
            dotted = module.aliases.get(name, name)
            # Same-module function or class?  (Graphed modules always
            # have a dotted name; the guard keeps this total.)
            local = f"{module.module_name or ''}.{name}"
            if name not in module.aliases and module.module_name is not None:
                if local in graph.functions:
                    return (DIRECT, (local,), None)
                if local in graph.classes:
                    return self._constructor(local)
            resolved_fn = graph.functions.get(dotted)
            if resolved_fn is not None:
                return (DIRECT, (dotted,), None)
            resolved_cls = resolve_class_name(graph, dotted)
            if resolved_cls is not None and (
                name in module.aliases or dotted in graph.classes
            ):
                return self._constructor(resolved_cls)
            if name in module.aliases:
                return (EXTERNAL, (), dotted)
            if name in _BUILTIN_NAMES:
                return (EXTERNAL, (), name)
            return None

        if isinstance(func, ast.Attribute):
            method = func.attr
            # Fully dotted through a module alias first:
            # ``replay.age_file_system`` / ``obs.tracer_or_none``.
            dotted = module.dotted(func)
            if dotted is not None:
                if dotted in graph.functions:
                    return (DIRECT, (dotted,), None)
                resolved_cls = resolve_class_name(graph, dotted)
                if resolved_cls is not None:
                    return self._constructor(resolved_cls)
                # ``SomeClass.method`` referenced as an unbound function.
                head, _, tail = dotted.rpartition(".")
                cls = resolve_class_name(graph, head) if head else None
                if cls is not None:
                    candidates = graph.method_candidates(cls, tail)
                    if candidates:
                        return (TYPED, tuple(candidates), None)
            # Typed receiver.
            receiver_cls = self._expr_class(func.value)
            if receiver_cls is not None:
                candidates = graph.method_candidates(receiver_cls, method)
                if candidates:
                    kind = SELF if (
                        isinstance(func.value, ast.Name)
                        and func.value.id == "self"
                    ) else TYPED
                    return (kind, tuple(candidates), None)
                # Known project class without this method: the method
                # comes from outside the project (dict, list, ...).
                return (EXTERNAL, (), dotted)
            # Name-based class-hierarchy fallback, bounded by the import
            # closure: an untyped receiver in this module can only be an
            # instance of a class some transitive import could supply.
            closure = graph.import_closure.get(self.fn.module, set())
            cha = [
                q
                for q in graph.methods_by_name.get(method, [])
                if graph.functions[q].module in closure
            ]
            if cha:
                return (CHA, tuple(sorted(cha)), None)
            return (EXTERNAL, (), dotted)

        return None

    def _constructor(
        self, class_qualname: str
    ) -> Tuple[str, Tuple[str, ...], Optional[str]]:
        info = self.graph.classes.get(class_qualname)
        targets: List[str] = []
        if info is not None:
            for hook in ("__init__", "__post_init__"):
                found = self.graph._lookup_inherited(  # noqa: SLF001
                    class_qualname, hook, set()
                )
                if found is not None:
                    targets.append(found)
        return (CONSTRUCTOR, tuple(targets), None)

    # -- the walk -------------------------------------------------------

    def run(self) -> List[CallSite]:
        node = self.fn.node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return []
        for stmt in node.body:
            self._walk(stmt)
        return self.sites

    def _walk(self, node: ast.AST) -> None:
        # Nested defs are their own graph nodes; don't double-count.
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            self._note_assignment(node.targets[0], node.value)
        elif isinstance(node, ast.AnnAssign):
            ann = _annotation_class(node.annotation, self.module, self.graph)
            if isinstance(node.target, ast.Name) and ann is not None:
                self.types[node.target.id] = ann
        if isinstance(node, ast.Call):
            self._record(node)
        for child in ast.iter_child_nodes(node):
            self._walk(child)

    def _note_assignment(self, target: ast.expr, value: ast.expr) -> None:
        if not isinstance(target, ast.Name):
            return
        inferred = self._expr_class(value)
        if inferred is not None:
            self.types[target.id] = inferred
            self.opaque.discard(target.id)
        elif isinstance(value, (ast.Lambda, ast.Call, ast.Attribute, ast.Name)):
            # The name now holds something we cannot type; calling it is
            # dynamic unless it is a nested function reference.
            nested = f"{self.fn.qualname}.{getattr(value, 'id', '')}"
            if not (isinstance(value, ast.Name) and nested in self.graph.functions):
                self.types.pop(target.id, None)
                if isinstance(value, ast.Lambda):
                    self.opaque.add(target.id)

    def _record(self, call: ast.Call) -> None:
        resolved = self._resolve_call_targets(call)
        if resolved is None:
            kind: str = DYNAMIC
            targets: Tuple[str, ...] = ()
            external: Optional[str] = None
        else:
            kind, targets, external = resolved
        self.sites.append(
            CallSite(
                caller=self.fn.qualname,
                lineno=call.lineno,
                col=call.col_offset + 1,
                callee_text=_render_callee(call.func),
                kind=kind,
                targets=targets,
                external=external,
                node=call,
            )
        )


