"""Fig. 10(d) — write performance with the broadcast optimization.

Expected shape (§6.6): with broadcast adds, a *single* client's write
throughput no longer decreases as n-k grows (its NIC ships one payload
regardless of p); with *many* clients the aggregate still decreases
with n-k because the storage nodes' inbound bandwidth saturates.
"""

from __future__ import annotations

from repro.client.config import WriteStrategy
from repro.sim.experiments import run_throughput
from repro.sim.workload import WorkloadSpec

from benchmarks.conftest import print_series

FAST = dict(duration=0.12, warmup=0.02, stripes=512)
K = 8
PS = [1, 2, 4, 8]


def bench_fig10d_broadcast_vs_unicast():
    series = {}
    for label, clients, strategy in [
        ("bcast, 1 client", 1, WriteStrategy.BROADCAST),
        ("unicast, 1 client", 1, WriteStrategy.PARALLEL),
        ("bcast, 64 clients", 64, WriteStrategy.BROADCAST),
    ]:
        spec = WorkloadSpec(outstanding=8, strategy=strategy, **FAST)
        series[label] = [
            (p, run_throughput(clients, K, K + p, spec).write_mbps) for p in PS
        ]
    print_series(
        "Fig. 10d — write throughput (MB/s) with broadcast adds, k=8",
        "n-k",
        {n: [(x, f"{y:.0f}") for x, y in pts] for n, pts in series.items()},
    )
    one_bcast = [y for _, y in series["bcast, 1 client"]]
    one_unicast = [y for _, y in series["unicast, 1 client"]]
    many_bcast = [y for _, y in series["bcast, 64 clients"]]
    # Single-client broadcast is flat in p...
    assert min(one_bcast) > max(one_bcast) * 0.75
    # ...while unicast decays markedly...
    assert one_unicast[-1] < one_unicast[0] * 0.5
    # ...and broadcast beats unicast at high redundancy.
    assert one_bcast[-1] > one_unicast[-1] * 1.5
    # With 64 clients the aggregate still decreases with n-k
    # (storage-side saturation).
    assert many_bcast[-1] < many_bcast[0]
