"""Statistics helpers."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import stats

samples = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=100
)


class TestBasics:
    def test_mean(self):
        assert stats.mean([1, 2, 3]) == 2.0

    def test_mean_empty_rejected(self):
        with pytest.raises(ValueError):
            stats.mean([])

    def test_percentile_endpoints(self):
        data = [5, 1, 9, 3]
        assert stats.percentile(data, 0) == 1
        assert stats.percentile(data, 100) == 9

    def test_percentile_interpolates(self):
        assert stats.percentile([0, 10], 25) == 2.5

    def test_percentile_single_sample(self):
        assert stats.percentile([7.0], 99) == 7.0

    def test_percentile_bounds_checked(self):
        with pytest.raises(ValueError):
            stats.percentile([1], 101)
        with pytest.raises(ValueError):
            stats.percentile([], 50)


class TestProperties:
    @given(samples, st.floats(min_value=0, max_value=100))
    def test_percentile_within_range(self, data, q):
        value = stats.percentile(data, q)
        assert min(data) <= value <= max(data)

    @given(samples)
    def test_percentiles_monotone(self, data):
        p50 = stats.percentile(data, 50)
        p95 = stats.percentile(data, 95)
        p99 = stats.percentile(data, 99)
        assert p50 <= p95 <= p99

    @given(samples)
    def test_mean_within_range(self, data):
        mu = stats.mean(data)
        assert min(data) - 1e-6 <= mu <= max(data) + 1e-6


class TestSummary:
    def test_summarize(self):
        summary = stats.summarize(list(range(1, 101)))
        assert summary.count == 100
        assert summary.mean == 50.5
        assert summary.p50 == pytest.approx(50.5)
        assert summary.worst == 100

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            stats.summarize([])

    def test_scaled(self):
        summary = stats.summarize([0.001, 0.002]).scaled(1e3)
        assert summary.mean == pytest.approx(1.5)
        assert summary.worst == pytest.approx(2.0)

    def test_str_rendering(self):
        text = str(stats.summarize([1.0, 2.0]))
        assert "n=2" in text and "p99" in text

    def test_metrics_integration(self):
        from repro.sim.metrics import Metrics

        m = Metrics()
        for i in range(100):
            m.record("write", i * 0.01, latency=0.001 * (i + 1))
        summary = m.latency_summary("write")
        assert summary.count == 100
        assert summary.p99 > summary.p50
