"""R004 — parallel-pickle safety: executor tasks must be module-level.

``repro.parallel.fan_out`` runs agings, experiments and chaos cases on
a ``ProcessPoolExecutor``.  Everything submitted crosses a process
boundary by pickle, and pickle serialises functions *by qualified
name*: a lambda or a closure defined inside another function has no
importable name, so the submit call raises ``PicklingError`` — but only
at runtime, only with ``--jobs > 1``, which is exactly the path local
quick tests skip.

This rule inspects ``pool.submit(fn, ...)`` and ``pool.map(fn, ...)``
calls and flags a first argument that is:

* a ``lambda`` expression,
* a name bound to a ``def`` nested inside another function or class
  method (a closure — unpicklable), or
* a bound method (``self.fn`` / ``obj.fn`` attribute access) — these
  drag the whole instance through pickle and usually fail on
  non-trivial objects.

To avoid flagging unrelated ``.map()`` calls (e.g. on a dict-like), the
receiver must look like an executor: the module imports
``concurrent.futures`` or ``multiprocessing``, or the receiver's name
contains ``pool`` or ``executor``.

Compliant::

    def _run_task(fn, args):  # module level: picklable by name
        ...

    pool.submit(_run_task, fn, args)
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.lint.findings import Finding
from repro.lint.registry import ModuleContext, Rule, register

_EXECUTOR_HINTS = ("pool", "executor")


def _module_imports_executors(module: ModuleContext) -> bool:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            if any(
                alias.name.split(".")[0] in ("concurrent", "multiprocessing")
                for alias in node.names
            ):
                return True
        elif isinstance(node, ast.ImportFrom):
            top = (node.module or "").split(".")[0]
            if top in ("concurrent", "multiprocessing"):
                return True
    return False


def _nested_function_names(tree: ast.Module) -> Set[str]:
    """Names of `def`s that are NOT at module level (closures/methods)."""
    module_level = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    all_defs = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    return all_defs - module_level


def _receiver_name(func: ast.Attribute) -> str:
    """Best-effort textual name of the receiver (`pool` in `pool.submit`)."""
    value = func.value
    parts = []
    while isinstance(value, ast.Attribute):
        parts.append(value.attr)
        value = value.value
    if isinstance(value, ast.Name):
        parts.append(value.id)
    return ".".join(reversed(parts)).lower()


@register
class PickleSafetyRule(Rule):
    __doc__ = __doc__

    rule_id = "R004"
    name = "parallel-pickle-safety"
    summary = (
        "callables handed to executor submit()/map() must be module-level "
        "functions, not lambdas, closures, or bound methods"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        imports_executors = _module_imports_executors(module)
        nested = _nested_function_names(module.tree)

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute) or func.attr not in ("submit", "map"):
                continue
            receiver = _receiver_name(func)
            looks_like_executor = imports_executors or any(
                hint in receiver for hint in _EXECUTOR_HINTS
            )
            if not looks_like_executor or not node.args:
                continue
            task = node.args[0]
            if isinstance(task, ast.Lambda):
                yield module.finding(
                    self,
                    node,
                    f"lambda passed to {receiver or 'executor'}.{func.attr}(); "
                    f"lambdas cannot be pickled across the process boundary — "
                    f"define a module-level function",
                )
            elif isinstance(task, ast.Name) and task.id in nested:
                yield module.finding(
                    self,
                    node,
                    f"nested function '{task.id}' passed to "
                    f"{receiver or 'executor'}.{func.attr}(); closures cannot "
                    f"be pickled — hoist it to module level",
                )
            elif isinstance(task, ast.Attribute):
                # Module-qualified functions (`mod.fn` where `mod` was
                # imported) are picklable by name; anything else rooted
                # at a plain name is an object attribute — a bound method.
                root = task.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name) and root.id not in module.aliases:
                    yield module.finding(
                        self,
                        node,
                        f"bound method passed to "
                        f"{receiver or 'executor'}.{func.attr}(); pickling it "
                        f"drags the whole instance across the process boundary "
                        f"— use a module-level function taking the data it needs",
                    )
