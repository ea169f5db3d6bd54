"""Property-based checks of the simulator's physical sanity."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.calibration import CostModel
from repro.sim.engine import Resource, Simulator, Timeout, Use
from repro.sim.experiments import run_throughput
from repro.sim.workload import WorkloadSpec


class TestEngineProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=20))
    def test_fifo_resource_conserves_work(self, services):
        """Total busy time equals the sum of service demands, and the
        last completion is at least that sum (single server)."""
        sim = Simulator()
        server = Resource("s")
        completions = []

        def job(service):
            yield Use(server, service)
            completions.append(sim.now)

        for service in services:
            sim.spawn(job(service))
        sim.run()
        assert server.busy_time == pytest.approx(sum(services))
        assert max(completions) == pytest.approx(sum(services))

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=1, max_size=15),
        st.integers(min_value=1, max_value=4),
    )
    def test_utilization_never_exceeds_one(self, services, capacity):
        sim = Simulator()
        pool = Resource("p", capacity=capacity)

        def job(service):
            yield Use(pool, service)

        for service in services:
            sim.spawn(job(service))
        sim.run()
        assert pool.utilization(sim.now) <= 1.0 + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=10))
    def test_time_is_monotone(self, delays):
        sim = Simulator()
        stamps = []

        def proc():
            for delay in delays:
                yield Timeout(delay)
                stamps.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert stamps == sorted(stamps)
        assert stamps[-1] == pytest.approx(sum(delays))


class TestThroughputPhysics:
    FAST = dict(duration=0.15, warmup=0.03, stripes=64)

    def test_write_throughput_bounded_by_client_nic(self):
        """A client cannot push more than NIC_bw / (p+2) of useful data."""
        costs = CostModel()
        result = run_throughput(
            1, 4, 6, WorkloadSpec(outstanding=32, **self.FAST), costs=costs
        )
        p = 2
        bound = costs.client_bandwidth / (p + 2) / 1e6  # MB/s
        assert result.write_mbps <= bound * 1.05

    def test_read_throughput_bounded_by_storage(self):
        costs = CostModel()
        result = run_throughput(
            8,
            2,
            4,
            WorkloadSpec(outstanding=16, read_fraction=1.0, **self.FAST),
            costs=costs,
        )
        bound = 4 * costs.storage_bandwidth / 1e6
        assert result.read_mbps <= bound * 1.05

    def test_halving_bandwidth_halves_saturated_throughput(self):
        """At the default costs the client NIC is the binding resource
        (utilization 1.0), so halving bandwidth must halve throughput.
        (Doubling it instead shifts the bottleneck to the client CPU, so
        the gain there is sub-linear — also physically correct.)"""
        from dataclasses import replace

        base = CostModel()
        thin = replace(
            base,
            client_bandwidth=base.client_bandwidth / 2,
            storage_bandwidth=base.storage_bandwidth / 2,
        )
        spec = WorkloadSpec(outstanding=32, **self.FAST)
        normal = run_throughput(1, 3, 5, spec, costs=base)
        halved = run_throughput(1, 3, 5, spec, costs=thin)
        assert normal.max_client_nic_utilization > 0.9
        assert halved.write_mbps == pytest.approx(
            normal.write_mbps / 2, rel=0.15
        )

    def test_latency_at_least_two_round_trips(self):
        costs = CostModel()
        result = run_throughput(
            1, 3, 5, WorkloadSpec(outstanding=1, **self.FAST), costs=costs
        )
        # A parallel write = swap RT + add RT = 4 one-way latencies min.
        assert result.mean_write_latency >= 4 * costs.net_latency

    def test_percentiles_available_from_run(self):
        costs = CostModel()
        from repro.sim.system import SimSystem
        from repro.sim.workload import launch

        system = SimSystem.build(2, 3, 5, costs=costs)
        spec = WorkloadSpec(outstanding=8, **self.FAST)
        metrics = launch(system, spec)
        system.sim.run(until=spec.duration)
        summary = metrics.latency_summary("write")
        assert summary["count"] > 0
        assert (
            summary["p50"] <= summary["p95"] <= summary["p99"] <= summary["max"]
        )
