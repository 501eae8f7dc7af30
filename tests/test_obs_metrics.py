"""Unit tests for the telemetry metric primitives."""

import pytest

from repro import obs
from repro.obs.export import bucket_quantile
from repro.obs.metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("x")
        assert c.value == 0
        c.inc()
        c.inc(41)
        assert c.value == 42

    def test_rejects_decrease(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)


class TestGauge:
    def test_last_write_wins(self):
        g = Gauge("score")
        g.set(0.5)
        g.set(0.9)
        assert g.value == 0.9

    def test_add(self):
        g = Gauge("level")
        g.add(2.0)
        g.add(-0.5)
        assert g.value == 1.5


class TestHistogram:
    def test_count_sum_min_max_mean(self):
        h = Histogram("ms")
        for v in (1.0, 3.0, 8.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == 12.0
        assert h.min == 1.0
        assert h.max == 8.0
        assert h.mean == 4.0

    def test_buckets_are_cumulative_upper_bounds(self):
        h = Histogram("v", buckets=(1.0, 10.0))
        h.observe(0.5)   # <= 1
        h.observe(1.0)   # <= 1 (bisect_left: on-boundary goes low)
        h.observe(5.0)   # <= 10
        h.observe(100.0) # +inf overflow bucket
        assert h.bucket_counts == [2, 1, 1]

    def test_quantile_approximation(self):
        h = Histogram("v", buckets=(1.0, 2.0, 4.0, 8.0))
        for _ in range(50):
            h.observe(1.5)
        for _ in range(50):
            h.observe(3.0)
        data = h.to_dict()
        assert bucket_quantile(data, 0.25) == 2.0
        assert bucket_quantile(data, 1.0) == 4.0
        assert bucket_quantile(data, 0.0) == 1.5  # exact min at the extreme

    def test_quantile_bounds_checked(self):
        with pytest.raises(ValueError):
            bucket_quantile(Histogram("v").to_dict(), 1.5)

    def test_empty_histogram_dict(self):
        d = Histogram("v").to_dict()
        assert d["count"] == 0
        assert d["min"] is None
        assert d["buckets"] == []


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        m = MetricsRegistry()
        assert m.counter("a") is m.counter("a")

    def test_kind_conflict_rejected(self):
        m = MetricsRegistry()
        m.counter("a")
        with pytest.raises(TypeError):
            m.gauge("a")

    def test_snapshot_is_sorted_plain_data(self):
        m = MetricsRegistry()
        m.counter("b.count").inc(2)
        m.gauge("a.level").set(1.5)
        m.histogram("c.dist").observe(3.0)
        snap = m.snapshot()
        assert list(snap) == ["a.level", "b.count", "c.dist"]
        assert snap["b.count"] == {"type": "counter", "value": 2}
        assert snap["a.level"]["value"] == 1.5
        assert snap["c.dist"]["count"] == 1

    def test_contains_and_names(self):
        m = MetricsRegistry()
        m.counter("x")
        assert "x" in m
        assert m.names() == ["x"]
        assert len(m) == 1


class TestNullRegistry:
    def test_null_metrics_are_shared_noops(self):
        c = NULL_REGISTRY.counter("anything")
        assert c is NULL_REGISTRY.counter("other")
        c.inc(10)
        assert c.value == 0
        NULL_REGISTRY.gauge("g").set(5.0)
        NULL_REGISTRY.histogram("h").observe(1.0)
        assert NULL_REGISTRY.snapshot() == {}
        assert len(NULL_REGISTRY) == 0


class TestGlobalState:
    def test_disabled_by_default(self):
        assert not obs.enabled()
        assert obs.metrics_or_none() is None
        assert obs.tracer_or_none() is None
        assert obs.metrics() is NULL_REGISTRY

    def test_session_enables_and_restores(self):
        assert not obs.enabled()
        with obs.session() as (registry, tracer):
            assert obs.enabled()
            assert obs.metrics() is registry
            assert obs.tracer() is tracer
            registry.counter("in.session").inc()
        assert not obs.enabled()

    def test_session_injects_instances(self):
        mine = MetricsRegistry()
        with obs.session(registry=mine):
            obs.metrics().counter("hello").inc()
        assert mine.counter("hello").value == 1

    def test_sessions_nest_and_restore_outer(self):
        with obs.session() as (outer, _):
            with obs.session() as (inner, _):
                assert obs.metrics() is inner
            assert obs.metrics() is outer
