"""Fig. 10(a) — simulated aggregate write throughput vs clients (large systems).

Paper setup: codes up to n = 32, 1..64 clients, closed loop.  Expected
shape: writes scale with clients until storage saturates; the slope
decreases with higher redundancy n-k; the ceiling drops as n decreases.
"""

from __future__ import annotations

from repro.sim.experiments import run_throughput
from repro.sim.workload import WorkloadSpec

from benchmarks.conftest import print_series

CODES = [(16, 18), (16, 20), (8, 10), (4, 6)]
CLIENTS = [1, 4, 16, 64]
FAST = dict(duration=0.12, warmup=0.02, stripes=512, outstanding=8)


def bench_fig10a_write_scaling():
    series = {
        f"{k}-of-{n}": [
            (c, run_throughput(c, k, n, WorkloadSpec(**FAST)).write_mbps)
            for c in CLIENTS
        ]
        for k, n in CODES
    }
    print_series(
        "Fig. 10a — simulated aggregate write throughput (MB/s)",
        "clients",
        {n: [(x, f"{y:.0f}") for x, y in pts] for n, pts in series.items()},
    )
    for name, points in series.items():
        mbps = [y for _, y in points]
        assert mbps[1] > mbps[0] * 2.5, name  # scales while unsaturated
        assert mbps[-1] >= mbps[-2] * 0.9, name  # monotone-ish plateau
    at64 = {name: pts[-1][1] for name, pts in series.items()}
    # Higher redundancy at same k -> lower throughput.
    assert at64["16-of-18"] > at64["16-of-20"]
    # Smaller n -> lower ceiling (less aggregate storage bandwidth).
    assert at64["16-of-18"] > at64["8-of-10"] > at64["4-of-6"]
