"""Fig. 10(b) — simulated aggregate read throughput vs clients.

Expected shape: reads scale with clients and saturate on total storage
bandwidth; throughput depends only on n, not on k, "because reads do
not involve the redundant nodes".
"""

from __future__ import annotations

import pytest

from repro.sim.experiments import run_throughput
from repro.sim.workload import WorkloadSpec

from benchmarks.conftest import print_series

CLIENTS = [1, 4, 16, 64]
FAST = dict(
    duration=0.12, warmup=0.02, stripes=512, outstanding=8, read_fraction=1.0
)


def bench_fig10b_read_scaling():
    series = {
        f"{k}-of-{n}": [
            (c, run_throughput(c, k, n, WorkloadSpec(**FAST)).read_mbps)
            for c in CLIENTS
        ]
        for k, n in [(16, 20), (12, 20), (8, 10)]
    }
    print_series(
        "Fig. 10b — simulated aggregate read throughput (MB/s)",
        "clients",
        {n: [(x, f"{y:.0f}") for x, y in pts] for n, pts in series.items()},
    )
    for name, points in series.items():
        mbps = [y for _, y in points]
        assert mbps[1] > mbps[0] * 2.5, name
    # Same n, different k: read throughput must match (reads never touch
    # redundant nodes; only the node count matters).
    a = dict(series["16-of-20"])
    b = dict(series["12-of-20"])
    for c in CLIENTS:
        assert a[c] == pytest.approx(b[c], rel=0.15), c
    # Fewer nodes -> lower read ceiling at 64 clients.
    assert dict(series["16-of-20"])[64] > dict(series["8-of-10"])[64]
