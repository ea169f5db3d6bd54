"""§3.11 — sequential I/O pipelining on the functional cluster.

"clients can pipeline sequential I/O and get great bandwidth": with a
realistic RPC latency, a window of outstanding sequential writes hides
round trips behind each other (consecutive blocks live on different
nodes, so they never conflict).
"""

from __future__ import annotations

import time

from repro.core.cluster import Cluster
from repro.core.pipeline import PipelinedWriter
from repro.net.local import DelayModel

from benchmarks.conftest import print_table

BLOCKS = 30
BS = 1024


def _run(window: int) -> float:
    cluster = Cluster(k=3, n=5, block_size=BS, delay=DelayModel(latency=1e-3))
    vol = cluster.client("c")
    payload = [bytes([i % 256]) * 16 for i in range(BLOCKS)]
    start = time.perf_counter()
    if window == 1:
        vol.write_blocks(0, payload)
    else:
        with PipelinedWriter(vol, window=window) as pipe:
            pipe.write_blocks(0, payload)
    elapsed = time.perf_counter() - start
    for s in range(BLOCKS // 3):
        assert cluster.stripe_consistent(s)
    return BLOCKS * BS / elapsed / 1e6


def bench_sequential_pipelining():
    mbps = {w: _run(w) for w in (1, 2, 4, 8)}
    print_table(
        f"§3.11 — sequential write bandwidth vs pipeline window "
        f"({BLOCKS} blocks, 1ms RPC latency)",
        ["window", "MB/s", "speedup"],
        [[w, f"{v:.2f}", f"{v / mbps[1]:.1f}x"] for w, v in mbps.items()],
    )
    # Monotone-ish gains; window 8 must be several times window 1.
    assert mbps[8] > mbps[1] * 2.5
    assert mbps[4] > mbps[1] * 1.8
