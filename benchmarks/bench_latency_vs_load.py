"""Latency vs offered load — the queueing knee (open-loop extension).

The paper reports latency only lightly (§6.3).  With the simulator's
open-loop (Poisson) arrivals we can chart the full latency-vs-load
curve: flat near the unloaded round-trip time, then the characteristic
knee as the client NIC approaches saturation.
"""

from __future__ import annotations

from repro.sim.calibration import CostModel
from repro.sim.system import SimSystem
from repro.sim.workload import WorkloadSpec, launch_open_loop

from benchmarks.conftest import print_series


def _latency_at(rate: float) -> tuple[float, float]:
    """(mean, p99) write latency in ms at ``rate`` writes/s offered."""
    costs = CostModel()
    spec = WorkloadSpec(duration=0.6, warmup=0.1, stripes=256, outstanding=1)
    system = SimSystem.build(1, 3, 5, costs=costs)
    metrics = launch_open_loop(system, spec, rate_per_client=rate)
    system.sim.run()  # run to exhaustion: all spawned ops finish
    summary = metrics.latency_summary("write")
    return summary["sum"] / summary["count"] * 1e3, summary["p99"] * 1e3


def bench_latency_vs_offered_load():
    # The client NIC fits ~ bandwidth/(p+2)/block ≈ 15k writes/s here.
    rates = [1000, 5000, 10000, 13000]
    curves = {rate: _latency_at(rate) for rate in rates}
    print_series(
        "Latency vs offered load — 1 client, 3-of-5, open loop",
        "writes/s",
        {
            "mean ms": [(r, f"{m:.3f}") for r, (m, _) in curves.items()],
            "p99 ms": [(r, f"{p:.3f}") for r, (_, p) in curves.items()],
        },
    )
    means = [curves[r][0] for r in rates]
    p99s = [curves[r][1] for r in rates]
    # Latency is flat at low load...
    assert means[1] < means[0] * 2
    # ...then rises sharply near saturation (the knee).
    assert means[-1] > means[0] * 3
    # Tail latency degrades before (and faster than) the mean.
    assert p99s[-1] > means[-1]
    assert p99s[-2] / p99s[0] >= means[-2] / means[0] * 0.8
