"""Project-scope rule tests: R101–R104 fire/silent pairs, plus the pin
that matters most — the shipped tree's protected paths are proven clean.

Fixture trees are tiny but real: each is collected, parsed, graphed,
and run through the full engine (pragmas and all), exactly as the CLI
would, so these tests exercise the whole pipeline and not just the
rule in isolation.
"""

import textwrap
from pathlib import Path

import pytest

from repro.lint.engine import lint_paths, lint_tree, parse_tree
from repro.lint.rules.graph_determinism import (
    PROTECTED_ROOTS,
    TransitiveDeterminismRule,
    protected_reachable,
    trace_to_root,
)
from repro.lint.rules.iteration import IterationOrderRule
from repro.lint.rules.schema_registry import SchemaRegistryRule
from repro.lint.rules.units_flow import UnitFlowRule
from tests.lint_fixtures import write

REPO_ROOT = Path(__file__).resolve().parent.parent


def run(tmp_path, files, rules):
    for rel, source in files.items():
        write(tmp_path, rel, textwrap.dedent(source))
    return lint_paths([tmp_path], rules=rules, root=tmp_path)


@pytest.fixture(scope="session")
def shipped_tree():
    """``src/`` parsed and graphed once for every shipped-tree test."""
    return parse_tree([REPO_ROOT / "src"], REPO_ROOT)


class TestR101TransitiveDeterminism:
    def test_fires_transitively_across_modules(self, tmp_path):
        result = run(tmp_path, {
            "repro/cache/keys.py": """
                from repro.util import helper

                def make_key(x):
                    return helper(x)
            """,
            "repro/util.py": """
                import time

                def helper(x):
                    return time.time() + x
            """,
        }, rules=[TransitiveDeterminismRule])
        assert len(result.findings) == 1
        f = result.findings[0]
        assert f.path == "repro/util.py"
        assert "time.time" in f.message
        # The message carries the taint trace back to the root.
        assert "repro.cache.keys.make_key -> repro.util.helper" in f.message

    def test_silent_when_path_is_pure(self, tmp_path):
        result = run(tmp_path, {
            "repro/cache/keys.py": """
                from repro.util import helper

                def make_key(x):
                    return helper(x)
            """,
            "repro/util.py": """
                def helper(x):
                    return x * 2
            """,
        }, rules=[TransitiveDeterminismRule])
        assert result.findings == []

    def test_taint_outside_protected_paths_is_silent(self, tmp_path):
        # Same tainted helper, but nothing protected reaches it.
        result = run(tmp_path, {
            "repro/util.py": """
                import time

                def helper(x):
                    return time.time() + x
            """,
        }, rules=[TransitiveDeterminismRule])
        assert result.findings == []

    def test_dynamic_call_on_protected_path_is_unprovable(self, tmp_path):
        result = run(tmp_path, {
            "repro/aging/replay.py": """
                def age_file_system(op):
                    return op()
            """,
        }, rules=[TransitiveDeterminismRule])
        assert len(result.findings) == 1
        assert "cannot be proven" in result.findings[0].message

    def test_r001_pragma_at_site_is_honoured(self, tmp_path):
        result = run(tmp_path, {
            "repro/cache/keys.py": """
                from repro.util import helper

                def make_key(x):
                    return helper(x)
            """,
            "repro/util.py": """
                import time

                def helper(x):
                    return time.time() + x  # replint: disable=R001  (intentional stamp)
            """,
        }, rules=[TransitiveDeterminismRule])
        assert result.findings == []

    def test_obs_is_a_trust_barrier(self, tmp_path):
        # repro.obs samples the clock by design; R101 must not cross in.
        result = run(tmp_path, {
            "repro/aging/replay.py": """
                from repro.obs.tracer import emit

                def age_file_system(x):
                    emit(x)
                    return x
            """,
            "repro/obs/tracer.py": """
                import time

                def emit(x):
                    return (time.time(), x)
            """,
        }, rules=[TransitiveDeterminismRule])
        assert result.findings == []

    def test_set_iteration_on_protected_path_fires(self, tmp_path):
        result = run(tmp_path, {
            "repro/faults/plan.py": """
                def sample_plans(names):
                    chosen = set(names)
                    return [n for n in chosen]
            """,
        }, rules=[TransitiveDeterminismRule])
        assert len(result.findings) == 1
        assert "nondeterministic order" in result.findings[0].message


class TestR101ShippedTree:
    """The acceptance pin: the real tree's protected paths are clean."""

    def test_protected_roots_are_populated(self, shipped_tree):
        parents, order = protected_reachable(shipped_tree.graph)
        for expected in (
            "repro.cache.keys.make_key",
            "repro.aging.replay.age_file_system",
            "repro.faults.plan.sample_plans",
        ):
            assert expected in parents and parents[expected] is None
        # The closure is genuinely transitive: the allocator guts are
        # reachable from replay without any direct import link.
        assert "repro.ffs.superblock.Superblock.hashalloc" in parents

    def test_traces_lead_back_to_a_root(self, shipped_tree):
        parents, order = protected_reachable(shipped_tree.graph)
        for qualname in order:
            chain = trace_to_root(parents, qualname)
            assert chain[-1] == qualname
            root = chain[0]
            assert any(
                root.startswith(p + ".") for p in PROTECTED_ROOTS
            ), f"{qualname} traces to non-root {root}"

    def test_every_reachable_function_is_proven_clean(self, shipped_tree):
        """Every function reachable from cache-key construction, aging
        replay, and fault-plan sampling is free of clock/random/env/
        set-order nondeterminism — or carries a reviewed pragma."""
        result = lint_tree(shipped_tree, rules=[TransitiveDeterminismRule])
        assert result.findings == [], [f.format() for f in result.findings]
        # The pragma waivers are the three reviewed dynamic sites.
        assert result.pragma_suppressed == 3


class TestR102SchemaRegistry:
    REGISTRY = """
        MANIFEST = "repro.obs.manifest/v2"
        CACHE = "repro.cache/v1"
        REGISTRY = {"MANIFEST": MANIFEST, "CACHE": CACHE}
    """

    def test_skew_and_undeclared_fire(self, tmp_path):
        result = run(tmp_path, {
            "repro/schemas.py": self.REGISTRY,
            "repro/writer.py": """
                def stale():
                    return {"schema": "repro.obs.manifest/v1"}

                def unknown():
                    return {"schema": "repro.bogus/v1"}

                def uses_cache():
                    return {"schema": "repro.cache/v1"}
            """,
        }, rules=[SchemaRegistryRule])
        messages = [f.message for f in result.findings]
        assert any("version skew" in m for m in messages)
        assert any("undeclared" in m for m in messages)
        # The correct-version literal in library code is still flagged:
        # library code must import the constant.
        assert any("hard-coded" in m for m in messages)

    def test_orphaned_declaration_fires(self, tmp_path):
        result = run(tmp_path, {
            "repro/schemas.py": self.REGISTRY,
            "repro/writer.py": """
                from repro import schemas

                def write():
                    return {"schema": schemas.MANIFEST}
            """,
        }, rules=[SchemaRegistryRule])
        assert len(result.findings) == 1
        f = result.findings[0]
        assert f.path == "repro/schemas.py"
        assert "repro.cache" in f.message and "never referenced" in f.message

    def test_constant_usage_is_silent(self, tmp_path):
        result = run(tmp_path, {
            "repro/schemas.py": self.REGISTRY,
            "repro/writer.py": """
                from repro import schemas

                def write():
                    return {"schema": schemas.MANIFEST}

                def cache_tag():
                    return schemas.CACHE
            """,
        }, rules=[SchemaRegistryRule])
        assert result.findings == []

    def test_shipped_tree_is_registry_clean(self, shipped_tree):
        result = lint_tree(shipped_tree, rules=[SchemaRegistryRule])
        assert result.findings == [], [f.format() for f in result.findings]


class TestR103UnitFlow:
    def test_argument_unit_mismatch_fires(self, tmp_path):
        result = run(tmp_path, {
            "repro/a.py": """
                def grow(len_frags):
                    return len_frags

                def bad():
                    n_blocks = 4
                    return grow(n_blocks)
            """,
        }, rules=[UnitFlowRule])
        assert len(result.findings) == 1
        assert "parameter 'len_frags'" in result.findings[0].message

    def test_return_unit_mismatch_fires_across_modules(self, tmp_path):
        result = run(tmp_path, {
            "repro/a.py": """
                def count_frags():
                    total_frags = 8
                    return total_frags
            """,
            "repro/b.py": """
                from repro.a import count_frags

                def bad():
                    n_blocks = count_frags()
                    return n_blocks
            """,
        }, rules=[UnitFlowRule])
        assert len(result.findings) == 1
        f = result.findings[0]
        assert f.path == "repro/b.py"
        assert "returns frags" in f.message and "blocks" in f.message

    def test_conversion_by_multiplication_is_silent(self, tmp_path):
        result = run(tmp_path, {
            "repro/a.py": """
                def grow(len_frags):
                    return len_frags

                def ok(frags_per_block):
                    n_blocks = 4
                    return grow(n_blocks * frags_per_block)
            """,
        }, rules=[UnitFlowRule])
        assert result.findings == []

    def test_keyword_argument_mismatch_fires(self, tmp_path):
        result = run(tmp_path, {
            "repro/a.py": """
                def grow(len_frags=0):
                    return len_frags

                def bad():
                    n_blocks = 4
                    return grow(len_frags=n_blocks)
            """,
        }, rules=[UnitFlowRule])
        assert len(result.findings) == 1
        assert "keyword argument 'len_frags'" in result.findings[0].message

    def test_shipped_tree_is_unit_clean(self, shipped_tree):
        result = lint_tree(shipped_tree, rules=[UnitFlowRule])
        assert result.findings == [], [f.format() for f in result.findings]


class TestR104IterationOrder:
    def test_for_loop_over_set_fires(self, tmp_path):
        result = run(tmp_path, {
            "repro/a.py": """
                def rows(names):
                    out = []
                    seen = set(names)
                    for name in seen:
                        out.append(name)
                    return out
            """,
        }, rules=[IterationOrderRule])
        assert len(result.findings) == 1
        assert "sorted" in result.findings[0].message

    def test_sorted_wrapper_is_silent(self, tmp_path):
        result = run(tmp_path, {
            "repro/a.py": """
                def rows(names):
                    seen = set(names)
                    return [n for n in sorted(seen)]
            """,
        }, rules=[IterationOrderRule])
        assert result.findings == []

    def test_order_insensitive_consumers_are_silent(self, tmp_path):
        result = run(tmp_path, {
            "repro/a.py": """
                def stats(names):
                    seen = set(names)
                    return len(seen), sum(1 for n in seen), max(seen)
            """,
        }, rules=[IterationOrderRule])
        assert result.findings == []

    def test_list_conversion_fires(self, tmp_path):
        result = run(tmp_path, {
            "repro/a.py": """
                def rows(names):
                    return list({n for n in names})
            """,
        }, rules=[IterationOrderRule])
        assert len(result.findings) == 1

    def test_set_comprehension_result_is_silent(self, tmp_path):
        # A set built from a set is still unordered: no order escaped.
        result = run(tmp_path, {
            "repro/a.py": """
                def dedupe(names):
                    seen = set(names)
                    return {n for n in seen}
            """,
        }, rules=[IterationOrderRule])
        assert result.findings == []
