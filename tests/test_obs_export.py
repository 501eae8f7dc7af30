"""Export-layer tests: bucket quantiles and metric rendering."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.export import bucket_quantile, render_metrics


def _histogram_data(values, buckets):
    registry = MetricsRegistry()
    histogram = registry.histogram("h", buckets=buckets)
    for value in values:
        histogram.observe(value)
    return registry.snapshot()["h"]


class TestBucketQuantile:
    def test_quantiles_land_in_the_right_bucket(self):
        # 100 observations, uniform 0..99, buckets at 25/50/75/+inf.
        data = _histogram_data(range(100), buckets=[25, 50, 75])
        # p50: rank 50 falls in the (25, 50] bucket (cumulative 51).
        assert bucket_quantile(data, 0.5) == 50
        assert bucket_quantile(data, 0.9) == 99  # +inf bucket -> max
        assert bucket_quantile(data, 0.99) == 99
        assert bucket_quantile(data, 0.25) == 25

    def test_extremes_are_exact(self):
        data = _histogram_data([3, 7, 42], buckets=[10, 100])
        assert bucket_quantile(data, 0.0) == 3
        assert bucket_quantile(data, 1.0) == 100  # rank-3 bucket bound

    def test_empty_histogram_has_no_quantiles(self):
        data = _histogram_data([], buckets=[1, 2])
        assert bucket_quantile(data, 0.5) is None

    def test_out_of_range_raises(self):
        data = _histogram_data([1], buckets=[10])
        with pytest.raises(ValueError):
            bucket_quantile(data, 1.5)
        with pytest.raises(ValueError):
            bucket_quantile(data, -0.1)

    def test_render_metrics_includes_quantile_columns(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("io_ms", buckets=[1, 10, 100])
        for value in (0.5, 5.0, 50.0, 50.0):
            histogram.observe(value)
        text = render_metrics(registry.snapshot())
        assert "~p50" in text and "~p90" in text and "~p99" in text

    def test_zero_observation_histogram_renders(self):
        registry = MetricsRegistry()
        registry.histogram("quiet", buckets=[1, 2])
        text = render_metrics(registry.snapshot())
        assert "quiet" in text
        assert "-" in text  # the quantile columns show the null marker
