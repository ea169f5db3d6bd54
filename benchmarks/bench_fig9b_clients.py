"""Fig. 9(b) — aggregate write throughput vs number of clients.

Expected shape: throughput grows with clients; the slope decreases as
storage-node bandwidth saturates; codes with larger k have more
aggregate storage bandwidth and so a higher slope.
"""

from __future__ import annotations

from repro.sim.experiments import run_throughput
from repro.sim.workload import WorkloadSpec

from benchmarks.conftest import print_series

FAST = dict(duration=0.3, warmup=0.05, stripes=256, outstanding=32)


def bench_fig9b_write_vs_clients():
    series = {
        f"{k}-of-{n}": [
            (clients, run_throughput(clients, k, n, WorkloadSpec(**FAST)).write_mbps)
            for clients in (1, 2, 3, 4, 6)
        ]
        for k, n in [(2, 4), (3, 5), (5, 7)]
    }
    print_series(
        "Fig. 9b — aggregate write throughput (MB/s) vs clients",
        "clients",
        {n: [(x, f"{y:.1f}") for x, y in p] for n, p in series.items()},
    )
    for name, points in series.items():
        mbps = [y for _, y in points]
        assert mbps[1] > mbps[0] * 1.6, name  # near-linear at first
        assert all(b >= a * 0.95 for a, b in zip(mbps, mbps[1:])), name
        # Slope never increases (saturation can only flatten the curve).
        first_slope = mbps[1] - mbps[0]
        last_slope = (mbps[-1] - mbps[-2]) / 2  # per client
        assert last_slope <= first_slope * 1.05, name
    # The smallest code saturates hard within 6 clients (4 storage
    # nodes' bandwidth), the paper's "slope decreases" observation.
    small = [y for _, y in series["2-of-4"]]
    assert small[-1] - small[-2] < (small[1] - small[0]) * 0.5
    # Larger k -> more aggregate storage bandwidth -> higher ceiling.
    assert series["5-of-7"][-1][1] > series["2-of-4"][-1][1]
