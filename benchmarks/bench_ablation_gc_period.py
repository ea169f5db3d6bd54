"""Ablation — GC frequency vs metadata overhead (§3.9 / §6.5).

The recentlist/oldlist metadata grows with every un-collected write.
This bench quantifies the tradeoff: more writes between GC rounds means
more bytes per block held at storage nodes.
"""

from __future__ import annotations

from repro.core.cluster import Cluster

from benchmarks.conftest import print_table

BS = 1024


def bench_gc_period_vs_metadata():
    rows = []
    for period in (1, 8, 32, 128):
        cluster = Cluster(k=2, n=4, block_size=BS)
        vol = cluster.client("c")
        peak = 0
        for i in range(128):
            vol.write_block(i % 8, bytes([i % 256]))
            if (i + 1) % period == 0:
                vol.collect_garbage()
            peak = max(peak, cluster.metadata_bytes())
        vol.collect_garbage()
        vol.collect_garbage()
        rows.append(
            (
                period,
                peak / cluster.block_count(),
                cluster.metadata_bytes() / cluster.block_count(),
            )
        )
    print_table(
        "Ablation — GC period vs per-block metadata (128 writes over 8 blocks)",
        ["writes between GC", "peak B/blk", "final B/blk"],
        [[p, f"{peak:.1f}", f"{final:.1f}"] for p, peak, final in rows],
    )
    peaks = [peak for _, peak, _ in rows]
    # Peak metadata grows monotonically with the GC period...
    assert all(b >= a for a, b in zip(peaks, peaks[1:]))
    assert peaks[-1] > peaks[0] * 3
    # ...but the final, fully-collected state is the same small size.
    finals = [final for _, _, final in rows]
    assert max(finals) <= 10.0
