"""Fixture self-tests for every replint rule.

Each rule gets at least one snippet that MUST fire and one compliant
snippet that MUST stay silent — a rule that never fires, or that fires
on the idiomatic form, is worse than no rule.

Snippets are written under a fake ``repro/`` package directory so the
rules that scope themselves to library code (R002, R003) activate;
exemption tests write under ``repro/rng`` / ``repro/obs`` instead.
"""

import pytest

from repro.lint.engine import lint_paths
from repro.lint.registry import get_rule
from tests.lint_fixtures import write


def run_rule(tmp_path, rule_id, source, rel="repro/mod.py"):
    """Lint one snippet with one rule; returns the findings."""
    path = write(tmp_path, rel, source)
    rule = get_rule(rule_id)
    assert rule is not None, rule_id
    result = lint_paths([path], rules=[rule], root=tmp_path)
    return result.findings


class TestR001Determinism:
    def test_fires_on_random_import(self, tmp_path):
        findings = run_rule(tmp_path, "R001", "import random\n")
        assert [f.rule_id for f in findings] == ["R001"]
        assert "random" in findings[0].message

    def test_fires_on_from_random_import(self, tmp_path):
        assert run_rule(tmp_path, "R001", "from random import choice\n")

    def test_fires_on_time_time(self, tmp_path):
        findings = run_rule(
            tmp_path, "R001", "import time\nstamp = time.time()\n"
        )
        assert findings and findings[0].line == 2

    def test_fires_on_datetime_now_aliased(self, tmp_path):
        src = "from datetime import datetime as dt\nnow = dt.now()\n"
        assert run_rule(tmp_path, "R001", src)

    def test_fires_on_one_arg_strftime(self, tmp_path):
        src = 'import time\nday = time.strftime("%Y-%m-%d")\n'
        assert run_rule(tmp_path, "R001", src)

    def test_silent_on_strftime_with_explicit_time(self, tmp_path):
        src = 'import time\nday = time.strftime("%Y-%m-%d", t)\n'
        assert run_rule(tmp_path, "R001", src) == []

    def test_silent_on_localtime_of_recorded_stamp(self, tmp_path):
        src = "import time\nwhen = time.localtime(entry.created_at)\n"
        assert run_rule(tmp_path, "R001", src) == []

    def test_silent_on_monotonic_timers(self, tmp_path):
        src = "import time\nt0 = time.perf_counter()\n"
        assert run_rule(tmp_path, "R001", src) == []

    def test_silent_on_repro_rng_substream(self, tmp_path):
        src = "from repro import rng\nstream = rng.substream(7, 'aging')\n"
        assert run_rule(tmp_path, "R001", src) == []

    def test_exempt_inside_repro_rng(self, tmp_path):
        src = "import random\n"
        assert run_rule(tmp_path, "R001", src, rel="repro/rng.py") == []

    def test_exempt_inside_repro_obs(self, tmp_path):
        src = "import time\nstamp = time.time()\n"
        assert run_rule(tmp_path, "R001", src, rel="repro/obs/metrics.py") == []

    def test_fires_inside_repro_faults(self, tmp_path):
        # Fault injection is NOT exempt: crash points and fate draws are
        # cached and replayed, so they must come from repro.rng like any
        # other sampled quantity.
        src = "import random\nfate = random.random()\n"
        findings = run_rule(tmp_path, "R001", src, rel="repro/faults/plan.py")
        assert [f.rule_id for f in findings] == ["R001"]

    def test_silent_on_faults_substream_idiom(self, tmp_path):
        src = (
            "from repro import rng\n"
            "fates = rng.substream(seed, 'faults.fates')\n"
        )
        assert run_rule(tmp_path, "R001", src, rel="repro/faults/plan.py") == []


class TestR002TelemetryPurity:
    def test_fires_on_bare_metrics(self, tmp_path):
        src = "from repro import obs\nobs.metrics().counter('x').inc()\n"
        findings = run_rule(tmp_path, "R002", src)
        assert findings and "metrics_or_none" in findings[0].message

    def test_silent_on_guarded_facade(self, tmp_path):
        src = (
            "from repro import obs\n"
            "m = obs.metrics_or_none()\n"
            "if m is not None:\n"
            "    m.counter('x').inc()\n"
        )
        assert run_rule(tmp_path, "R002", src) == []

    def test_silent_on_session_and_enable(self, tmp_path):
        src = (
            "from repro import obs\n"
            "with obs.session():\n"
            "    obs.enable()\n"
        )
        assert run_rule(tmp_path, "R002", src) == []

    def test_exempt_inside_repro_obs(self, tmp_path):
        src = "from repro import obs\nobs.metrics().counter('x').inc()\n"
        assert run_rule(tmp_path, "R002", src, rel="repro/obs/helpers.py") == []

    def test_exempt_outside_repro(self, tmp_path):
        src = "from repro import obs\nobs.metrics().counter('x').inc()\n"
        assert run_rule(tmp_path, "R002", src, rel="scripts/tool.py") == []


class TestR003ErrorDiscipline:
    def test_fires_on_raise_exception(self, tmp_path):
        src = "def f(x):\n    raise Exception('bad input')\n"
        findings = run_rule(tmp_path, "R003", src)
        assert findings and "repro.errors" in findings[0].message

    def test_fires_on_raise_runtimeerror(self, tmp_path):
        src = "def f(x):\n    raise RuntimeError('oops')\n"
        assert run_rule(tmp_path, "R003", src)

    def test_fires_on_assert(self, tmp_path):
        src = "def f(x):\n    assert x > 0, 'bad'\n    return x\n"
        findings = run_rule(tmp_path, "R003", src)
        assert findings and "python -O" in findings[0].message

    def test_silent_on_repro_errors_type(self, tmp_path):
        src = (
            "from repro.errors import ConsistencyError\n"
            "def f(x):\n"
            "    raise ConsistencyError('view desynced')\n"
        )
        assert run_rule(tmp_path, "R003", src) == []

    def test_silent_on_valueerror(self, tmp_path):
        # Bad-argument ValueErrors are conventional Python; only the
        # uncatchable generics are banned.
        src = "def f(x):\n    raise ValueError('x must be positive')\n"
        assert run_rule(tmp_path, "R003", src) == []

    def test_silent_on_bare_reraise(self, tmp_path):
        src = "def f(x):\n    try:\n        g()\n    except KeyError:\n        raise\n"
        assert run_rule(tmp_path, "R003", src) == []

    def test_exempt_outside_repro(self, tmp_path):
        src = "assert 1 + 1 == 2\n"
        assert run_rule(tmp_path, "R003", src, rel="tests/test_x.py") == []


class TestR005UnitHygiene:
    """The retired R005's fixtures, unchanged, now run under R103, which
    absorbed its +/- check."""

    def test_fires_on_frag_plus_block(self, tmp_path):
        src = "pos = start_frag + len_blocks\n"
        findings = run_rule(tmp_path, "R103", src)
        assert findings and "repro.units" in findings[0].message

    def test_fires_on_byte_minus_sector(self, tmp_path):
        src = "gap = offset_bytes - pos_sectors\n"
        assert run_rule(tmp_path, "R103", src)

    def test_fires_on_augmented_assign(self, tmp_path):
        src = "cursor_frag += len_blocks\n"
        assert run_rule(tmp_path, "R103", src)

    def test_fires_on_attribute_operands(self, tmp_path):
        src = "end = req.start_sector + inode.len_bytes\n"
        assert run_rule(tmp_path, "R103", src)

    def test_silent_on_same_unit(self, tmp_path):
        src = "end_frag = start_frag + len_frags\n"
        assert run_rule(tmp_path, "R103", src) == []

    def test_silent_on_multiplication(self, tmp_path):
        # Multiplication is how conversions are written.
        src = "total_frags = frags_per_block * len_blocks\n"
        assert run_rule(tmp_path, "R103", src) == []

    def test_silent_on_converted_operand(self, tmp_path):
        src = "pos_frag = start_frag + frags_per_block * len_blocks\n"
        assert run_rule(tmp_path, "R103", src) == []

    def test_silent_on_subscript_container(self, tmp_path):
        # A container named by one unit indexed to yield another.
        src = "free_in_block[b] -= nfrags\n"
        assert run_rule(tmp_path, "R103", src) == []

    def test_silent_without_underscore_suffix(self, tmp_path):
        src = "total = nfrags + nblocks\n"
        assert run_rule(tmp_path, "R103", src) == []

    def test_fires_outside_repro_and_inside_functions(self, tmp_path):
        # Every linted module is walked whole: scripts, tests, and
        # function bodies, not just call-graph edges.
        src = "def f(req):\n    return req.start_sector - end_bytes\n"
        assert run_rule(tmp_path, "R103", src, rel="scripts/tool.py")
        assert run_rule(tmp_path, "R103", src)


class TestRuleMetadata:
    @pytest.mark.parametrize("rule_id", ["R001", "R002", "R003", "R103"])
    def test_registered_with_docs(self, rule_id):
        rule = get_rule(rule_id)
        assert rule is not None
        assert rule.name and rule.summary
        assert len(rule.explain()) > 100  # real docs, not a stub
