"""Ablation — degraded reads vs recovery-on-access during an outage.

The paper's reads trigger full recovery when they hit a damaged block
(§3.5); our extension can instead decode the value read-only.  This
bench measures the tradeoff on an outage-heavy read workload: time to
first byte for the damaged blocks, total repair work done, and the
state the cluster is left in.
"""

from __future__ import annotations

import time

from repro.client.config import ClientConfig
from repro.core.cluster import Cluster
from repro.net.local import DelayModel

from benchmarks.conftest import print_table

STRIPES = 20


def _run(degraded: bool):
    cluster = Cluster(
        k=3, n=5, block_size=256, delay=DelayModel(latency=300e-6)
    )
    seed = cluster.client("seed")
    for b in range(STRIPES * 3):
        seed.write_block(b, bytes([b % 256]))
    cluster.crash_storage(0)
    client = cluster.protocol_client(
        "reader", ClientConfig(degraded_reads=degraded)
    )
    latencies = []
    start = time.perf_counter()
    for stripe in range(STRIPES):
        t0 = time.perf_counter()
        for index in range(3):
            client.read(stripe, index)
        latencies.append(time.perf_counter() - t0)
    elapsed = time.perf_counter() - start
    consistent = sum(
        1 for s in range(STRIPES) if cluster.stripe_consistent(s)
    )
    return elapsed, max(latencies), client.stats.recoveries_completed, consistent


def bench_degraded_vs_recovering_reads():
    rec_t, rec_worst, rec_recov, rec_ok = _run(False)
    deg_t, deg_worst, deg_recov, deg_ok = _run(True)
    print_table(
        f"Ablation — reading every block of {STRIPES} stripes after a crash",
        ["mode", "total time", "worst stripe", "recoveries", "stripes healthy after"],
        [
            ["recover on access (paper)", f"{rec_t:.2f}s", f"{rec_worst * 1e3:.1f}ms",
             rec_recov, f"{rec_ok}/{STRIPES}"],
            ["degraded reads (extension)", f"{deg_t:.2f}s", f"{deg_worst * 1e3:.1f}ms",
             deg_recov, f"{deg_ok}/{STRIPES}"],
        ],
    )
    # Degraded reads do no repair work...
    assert deg_recov == 0 and rec_recov > 0
    # ...so the cluster is left more damaged than recover-on-access
    # (which repairs every stripe whose *data* block was lost; stripes
    # that only lost a redundant block await the monitor in both modes).
    assert deg_ok < rec_ok
    # ...and the worst-stripe read latency is lower (no lock+rewrite).
    assert deg_worst < rec_worst
