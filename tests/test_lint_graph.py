"""Call-graph builder and fixed-point engine tests.

The graph is the evidence behind R101's "proven clean" claim, so these
tests pin the resolution tiers one by one: direct calls through both
import-alias shapes, constructors, self/subclass dispatch, typed
receivers, the import-closure-bounded CHA fallback, and — most
important — that anything unresolvable degrades to a ``dynamic`` site
instead of silently vanishing from the edge set.
"""

import textwrap

import pytest

from repro.lint.dataflow import FixedPointError, solve
from repro.lint.graph import (
    CHA,
    CONSTRUCTOR,
    DIRECT,
    DYNAMIC,
    SELF,
    TYPED,
    build_graph,
)
from repro.lint.registry import build_context
from tests.lint_fixtures import write


def build(tmp_path, files):
    modules = []
    for rel, source in sorted(files.items()):
        path = write(tmp_path, rel, textwrap.dedent(source))
        modules.append(build_context(path, rel, path.read_text()))
    return build_graph(modules)


def kinds_of(graph, qualname):
    return [(s.kind, s.targets) for s in graph.sites(qualname)]


class TestDirectResolution:
    def test_from_import_alias(self, tmp_path):
        graph = build(tmp_path, {
            "repro/a.py": """
                def f():
                    return 1
            """,
            "repro/b.py": """
                from repro.a import f as g

                def h():
                    return g()
            """,
        })
        sites = graph.sites("repro.b.h")
        assert len(sites) == 1
        assert sites[0].kind == DIRECT
        assert sites[0].targets == ("repro.a.f",)

    def test_module_alias_attribute_call(self, tmp_path):
        graph = build(tmp_path, {
            "repro/a.py": """
                def f():
                    return 1
            """,
            "repro/b.py": """
                from repro import a

                def h():
                    return a.f()
            """,
        })
        sites = graph.sites("repro.b.h")
        assert sites[0].kind == DIRECT
        assert sites[0].targets == ("repro.a.f",)

    def test_same_module_call_without_import(self, tmp_path):
        graph = build(tmp_path, {
            "repro/a.py": """
                def f():
                    return 1

                def g():
                    return f()
            """,
        })
        assert graph.sites("repro.a.g")[0].targets == ("repro.a.f",)

    def test_nested_function_call(self, tmp_path):
        graph = build(tmp_path, {
            "repro/a.py": """
                def outer():
                    def inner():
                        return 1
                    return inner()
            """,
        })
        sites = graph.sites("repro.a.outer")
        assert sites[0].kind == DIRECT
        assert sites[0].targets == ("repro.a.outer.inner",)


class TestMethodDispatch:
    FILES = {
        "repro/shapes.py": """
            class Base:
                def run(self):
                    return self.step()

                def step(self):
                    return 0

            class Sub(Base):
                def step(self):
                    return 1
        """,
    }

    def test_self_dispatch_includes_subclass_overrides(self, tmp_path):
        graph = build(tmp_path, self.FILES)
        sites = graph.sites("repro.shapes.Base.run")
        assert sites[0].kind == SELF
        assert set(sites[0].targets) == {
            "repro.shapes.Base.step",
            "repro.shapes.Sub.step",
        }

    def test_typed_receiver(self, tmp_path):
        files = dict(self.FILES)
        files["repro/use.py"] = """
            from repro.shapes import Sub

            def drive(s: Sub):
                return s.step()
        """
        graph = build(tmp_path, files)
        sites = graph.sites("repro.use.drive")
        assert sites[0].kind == TYPED
        assert sites[0].targets == ("repro.shapes.Sub.step",)

    def test_constructor_resolves_init(self, tmp_path):
        graph = build(tmp_path, {
            "repro/c.py": """
                class C:
                    def __init__(self):
                        self.x = 1

                def make():
                    return C()
            """,
        })
        sites = graph.sites("repro.c.make")
        assert sites[0].kind == CONSTRUCTOR
        assert sites[0].targets == ("repro.c.C.__init__",)

    def test_decorators_recorded(self, tmp_path):
        graph = build(tmp_path, {
            "repro/d.py": """
                import functools

                @functools.lru_cache
                def cached():
                    return 1
            """,
        })
        fn = graph.functions["repro.d.cached"]
        assert "functools.lru_cache" in fn.decorators


class TestConservativeDegradation:
    def test_calling_a_parameter_is_dynamic(self, tmp_path):
        graph = build(tmp_path, {
            "repro/a.py": """
                def apply(f):
                    return f()
            """,
        })
        sites = graph.sites("repro.a.apply")
        assert sites[0].kind == DYNAMIC
        assert sites[0].targets == ()

    def test_calling_a_lambda_local_is_dynamic(self, tmp_path):
        graph = build(tmp_path, {
            "repro/a.py": """
                def apply():
                    f = lambda: 1
                    return f()
            """,
        })
        assert graph.sites("repro.a.apply")[0].kind == DYNAMIC

    def test_cha_bounded_by_import_closure(self, tmp_path):
        # Both Near and Far define .load(); the caller imports only the
        # module providing Near, so CHA must not accuse Far.load.
        graph = build(tmp_path, {
            "repro/near.py": """
                class Near:
                    def load(self):
                        return 1
            """,
            "repro/far.py": """
                class Far:
                    def load(self):
                        return 2
            """,
            "repro/use.py": """
                from repro import near

                def go(thing):
                    return thing.load()
            """,
        })
        sites = graph.sites("repro.use.go")
        assert sites[0].kind == CHA
        assert sites[0].targets == ("repro.near.Near.load",)


class TestReachability:
    def test_reachable_from_is_deterministic_and_transitive(self, tmp_path):
        graph = build(tmp_path, {
            "repro/a.py": """
                from repro.b import middle

                def root():
                    return middle()
            """,
            "repro/b.py": """
                from repro.c import leaf

                def middle():
                    return leaf()
            """,
            "repro/c.py": """
                def leaf():
                    return 1

                def unrelated():
                    return 2
            """,
        })
        reach = graph.reachable_from(["repro.a.root"])
        assert reach == ["repro.a.root", "repro.b.middle", "repro.c.leaf"]
        assert "repro.c.unrelated" not in reach

    def test_graph_document_shape(self, tmp_path):
        from repro import schemas

        graph = build(tmp_path, {
            "repro/a.py": """
                def f():
                    return 1
            """,
        })
        doc = graph.to_document()
        assert doc["schema"] == schemas.LINT_GRAPH
        assert doc["stats"]["functions"] == 1


class TestFixedPoint:
    def test_cyclic_graph_converges(self, tmp_path):
        # count_frags <-> helper is a genuine call cycle; the solver
        # must still reach the unique fixed point.
        graph = build(tmp_path, {
            "repro/c.py": """
                def count_frags(n):
                    if n == 0:
                        total_frags = 0
                        return total_frags
                    return helper(n)

                def helper(n):
                    return count_frags(n - 1)
            """,
        })
        from repro.lint.rules.units_flow import solve_return_units

        facts = solve_return_units(graph)
        assert facts["repro.c.count_frags"] == "frag"
        assert facts["repro.c.helper"] == "frag"

    def test_non_monotone_transfer_raises(self, tmp_path):
        graph = build(tmp_path, {
            "repro/c.py": """
                def a():
                    return b()

                def b():
                    return a()
            """,
        })
        with pytest.raises(FixedPointError):
            solve(graph, lambda _q: 0, lambda q, facts: facts[q] + 1)

    def test_solve_is_deterministic(self, tmp_path):
        graph = build(tmp_path, {
            "repro/c.py": """
                def a():
                    return 1

                def b():
                    return a()
            """,
        })
        first = solve(graph, lambda _q: 0, lambda q, f: len(q))
        second = solve(graph, lambda _q: 0, lambda q, f: len(q))
        assert first == second
