"""Fig. 10(c) — maximum write throughput vs redundancy n - k.

Expected shape: with clients saturated, the achievable aggregate write
throughput falls as n-k grows (every write fans out p+1 block payloads)
and rises with n (aggregate storage bandwidth).
"""

from __future__ import annotations

from repro.sim.experiments import run_throughput
from repro.sim.workload import WorkloadSpec

from benchmarks.conftest import print_series

FAST = dict(duration=0.12, warmup=0.02, stripes=512, outstanding=16)
CLIENTS = 16


def bench_fig10c_max_write_vs_redundancy():
    series = {
        f"k={k}": [
            (p, run_throughput(CLIENTS, k, k + p, WorkloadSpec(**FAST)).write_mbps)
            for p in (1, 2, 4, 8)
        ]
        for k in (8, 16)
    }
    print_series(
        f"Fig. 10c — max write throughput (MB/s) vs n-k, {CLIENTS} clients",
        "n-k",
        {n: [(x, f"{y:.0f}") for x, y in pts] for n, pts in series.items()},
    )
    for name, points in series.items():
        mbps = [y for _, y in points]
        assert all(b < a for a, b in zip(mbps, mbps[1:])), name
    # At equal p, the larger system sustains more aggregate throughput.
    assert dict(series["k=16"])[2] > dict(series["k=8"])[2]
