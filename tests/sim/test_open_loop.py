"""Open-loop (Poisson) workload generation."""

from __future__ import annotations

import pytest

from repro.sim.calibration import CostModel
from repro.sim.system import SimSystem
from repro.sim.workload import WorkloadSpec, launch_open_loop

SPEC = WorkloadSpec(duration=0.4, warmup=0.1, stripes=64, outstanding=1)


def run(rate: float, read_fraction: float = 0.0):
    spec = WorkloadSpec(duration=0.4, warmup=0.1, stripes=64,
                        read_fraction=read_fraction)
    system = SimSystem.build(1, 2, 4, costs=CostModel())
    metrics = launch_open_loop(system, spec, rate_per_client=rate)
    system.sim.run()
    return system, metrics


class TestOpenLoop:
    def test_rate_validation(self):
        system = SimSystem.build(1, 2, 4)
        with pytest.raises(ValueError):
            launch_open_loop(system, SPEC, rate_per_client=0)

    def test_arrival_rate_respected(self):
        _, metrics = run(rate=2000)
        # ~2000/s for 0.4s of arrivals -> ~800 completions (+/- noise).
        assert 550 <= len(metrics.write_times) <= 1100

    def test_read_fraction(self):
        _, metrics = run(rate=2000, read_fraction=1.0)
        assert len(metrics.read_times) > 0
        assert len(metrics.write_times) == 0

    def test_latency_grows_with_load(self):
        _, light = run(rate=500)
        _, heavy = run(rate=12000)
        assert heavy.mean_latency("write") > light.mean_latency("write")

    def test_open_loop_queues_unlike_closed_loop(self):
        """Past saturation an open loop's completions lag arrivals and
        latency blows up — the defining difference from closed loops."""
        system, metrics = run(rate=30000)  # far past NIC capacity
        summary = metrics.latency_summary("write")
        assert summary["p99"] > 10 * summary["p50"] or summary["p50"] > 1e-3
        assert system.clients[0].nic.utilization(system.sim.now) > 0.8
