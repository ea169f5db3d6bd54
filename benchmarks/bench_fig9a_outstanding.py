"""Fig. 9(a) — aggregate write throughput vs outstanding requests.

Paper setup: 2 clients, 1KB requests, several codes on up to 8 hosts.
Expected shape: throughput rises with outstanding requests and flattens
after ~64 per client as the client NIC saturates; increasing k does not
help much (the client is the bottleneck, not the storage nodes).
"""

from __future__ import annotations

from repro.sim.experiments import run_throughput
from repro.sim.workload import WorkloadSpec

from benchmarks.conftest import print_series

CODES = [(2, 4), (3, 5), (5, 7)]
OUTSTANDING = [1, 4, 16, 64, 128]
FAST = dict(duration=0.3, warmup=0.05, stripes=256)


def bench_fig9a_write_vs_outstanding():
    series = {
        f"{k}-of-{n}": [
            (
                outstanding,
                run_throughput(
                    2, k, n, WorkloadSpec(outstanding=outstanding, **FAST)
                ).write_mbps,
            )
            for outstanding in OUTSTANDING
        ]
        for k, n in CODES
    }
    print_series(
        "Fig. 9a — aggregate write throughput (MB/s), 2 clients, 1KB",
        "outstanding",
        {
            name: [(x, f"{y:.1f}") for x, y in pts]
            for name, pts in series.items()
        },
    )
    for name, points in series.items():
        mbps = [y for _, y in points]
        # Rises from 1 to 16 outstanding...
        assert mbps[2] > mbps[0] * 2, name
        # ...then flattens (past 64 gains < 15%).
        assert mbps[-1] < mbps[-2] * 1.15, name
    # Larger k does not improve write throughput much (client-bound).
    final = {name: pts[-1][1] for name, pts in series.items()}
    assert max(final.values()) < 2.0 * min(final.values())


def bench_fig9a_reads_4to5x_writes():
    """§6.2: read throughput is typically 4-5x write throughput."""
    write_mbps = run_throughput(
        2, 3, 5, WorkloadSpec(outstanding=64, **FAST)
    ).write_mbps
    read_mbps = run_throughput(
        2, 3, 5, WorkloadSpec(outstanding=64, read_fraction=1.0, **FAST)
    ).read_mbps
    ratio = read_mbps / write_mbps
    print(f"\nFig. 9a aside — read {read_mbps:.1f} MB/s vs write "
          f"{write_mbps:.1f} MB/s (ratio {ratio:.1f}x; paper: 4-5x)")
    assert 2.5 < ratio < 8.0
