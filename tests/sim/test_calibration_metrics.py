"""Calibration and metrics plumbing."""

from __future__ import annotations

import pytest

from repro.sim.calibration import CostModel, measure_costs, paper_costs
from repro.sim.metrics import Metrics


class TestCostModel:
    def test_paper_network_values(self):
        costs = CostModel()
        assert costs.net_latency == pytest.approx(25e-6)
        assert costs.client_bandwidth == pytest.approx(62.5e6)

    def test_request_bytes_adds_header(self):
        costs = CostModel(header_bytes=100)
        assert costs.request_bytes(1024) == 1124

    def test_scaling_to_larger_blocks(self):
        base = CostModel()
        big = base.scaled_to_block(16 * 1024)
        assert big.block_size == 16 * 1024
        assert big.delta_cpu == pytest.approx(base.delta_cpu * 16)
        assert big.net_latency == base.net_latency  # unchanged

    def test_paper_costs_factory(self):
        assert paper_costs(2048).block_size == 2048

    def test_measured_costs_are_positive_and_sane(self):
        costs = measure_costs(block_size=1024, repeats=20)
        assert 0 < costs.delta_cpu < 1e-3  # "very small" (Fig. 8a)
        assert 0 < costs.add_cpu < 1e-3
        assert costs.encode_cpu_per_block > 0
        assert costs.decode_cpu_per_block > 0

    def test_delta_and_add_independent_of_k(self):
        """Fig. 8b's key shape: Delta/Add stay ~constant as k grows."""
        small = measure_costs(block_size=1024, k=2, n=4, repeats=20)
        large = measure_costs(block_size=1024, k=12, n=14, repeats=20)
        assert large.delta_cpu < small.delta_cpu * 5 + 50e-6


class TestMetrics:
    def test_record_and_count(self):
        m = Metrics()
        m.record("write", 0.5, 0.001)
        m.record("write", 1.5, 0.002)
        m.record("read", 1.0, 0.0005)
        assert m.ops_per_second("write", 0.0, 2.0) == 1.0
        assert m.ops_per_second("read", 0.0, 2.0) == 0.5

    def test_window_excludes_warmup(self):
        m = Metrics()
        for t in (0.05, 0.5, 1.5):
            m.record("write", t, 0.001)
        assert m.ops_per_second("write", 0.1, 2.0) == pytest.approx(2 / 1.9)

    def test_throughput_mbps(self):
        m = Metrics()
        for i in range(1000):
            m.record("write", i / 1000, 0.001)
        assert m.throughput_mbps("write", 0.0, 1.0, 1024) == pytest.approx(
            1.024, rel=0.01
        )

    def test_mean_latency(self):
        m = Metrics()
        m.record("read", 1.0, 0.002)
        m.record("read", 2.0, 0.004)
        assert m.mean_latency("read") == pytest.approx(0.003)
        assert m.mean_latency("write") == 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Metrics().record("scan", 0.0, 0.0)

    def test_timeseries_shape(self):
        m = Metrics()
        for t in (0.1, 0.2, 0.8):
            m.record("write", t, 0.001)
        series = m.timeseries("write", bucket=0.5, end=1.0, block_size=1000)
        assert len(series) == 2
        assert series[0][1] > series[1][1]

    def test_timeseries_invalid_bucket(self):
        with pytest.raises(ValueError):
            Metrics().timeseries("write", 0.0, 1.0, 1024)

    def test_zero_window(self):
        m = Metrics()
        assert m.ops_per_second("write", 1.0, 1.0) == 0.0

    def test_metrics_integration(self):
        m = Metrics()
        for i in range(100):
            m.record("write", i * 0.01, latency=0.001 * (i + 1))
        summary = m.latency_summary("write")
        assert summary["count"] == 100
        assert summary["p99"] > summary["p50"]
