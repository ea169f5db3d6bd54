"""Fig. 9(c) — write throughput vs erasure-code redundancy (n - k).

Expected shape: throughput decreases with n-k because every write
pushes p+2 blocks through the client NIC; the relative decrease is
gentler for larger k (consistent with the paper's goal of large-k,
small-p codes).
"""

from __future__ import annotations

from repro.sim.experiments import run_throughput
from repro.sim.workload import WorkloadSpec

from benchmarks.conftest import print_series

FAST = dict(duration=0.3, warmup=0.05, stripes=256, outstanding=32)


def bench_fig9c_write_vs_redundancy():
    series = {
        f"k={k}": [
            (p, run_throughput(2, k, k + p, WorkloadSpec(**FAST)).write_mbps)
            for p in (1, 2, 3, 4)
            if p <= k  # Section 4 requires n-k <= k
        ]
        for k in (2, 4, 8)
    }
    print_series(
        "Fig. 9c — write throughput (MB/s) vs redundancy p = n-k, 2 clients",
        "p",
        {n: [(x, f"{y:.1f}") for x, y in pts] for n, pts in series.items()},
    )
    for name, points in series.items():
        mbps = [y for _, y in points]
        assert all(b < a for a, b in zip(mbps, mbps[1:])), name  # decreasing
    # Theoretical factor: throughput ~ 1/(p+2); check within 25%.
    k8 = dict(series["k=8"])
    assert k8[4] / k8[1] == __import__("pytest").approx(3 / 6, rel=0.25)
