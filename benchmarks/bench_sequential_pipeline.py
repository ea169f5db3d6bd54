"""§3.11 — sequential I/O pipelining on the functional cluster.

"clients can pipeline sequential I/O and get great bandwidth": with a
realistic RPC latency, an extent written with ``write_blocks`` costs two
rounds however many stripes it spans (one swap frame per data node, then
one summed add per redundant block), where a ``write_block`` loop pays
two rounds per block.
"""

from __future__ import annotations

import time

from repro.core.cluster import Cluster
from repro.net.local import DelayModel

from benchmarks.conftest import print_table

BLOCKS = 30
BS = 1024


def _run(extent: bool) -> float:
    cluster = Cluster(k=3, n=5, block_size=BS, delay=DelayModel(latency=1e-3))
    vol = cluster.client("c")
    payload = [bytes([i % 256]) * 16 for i in range(BLOCKS)]
    start = time.perf_counter()
    if extent:
        vol.write_blocks(0, payload)
    else:
        for logical, data in enumerate(payload):
            vol.write_block(logical, data)
    elapsed = time.perf_counter() - start
    for s in range(BLOCKS // 3):
        assert cluster.stripe_consistent(s)
    return BLOCKS * BS / elapsed / 1e6


def bench_sequential_pipelining():
    mbps = {"write_block loop": _run(False), "write_blocks": _run(True)}
    base = mbps["write_block loop"]
    print_table(
        f"§3.11 — sequential write bandwidth, one extent vs a block loop "
        f"({BLOCKS} blocks, 1ms RPC latency)",
        ["writer", "MB/s", "speedup"],
        [[w, f"{v:.2f}", f"{v / base:.1f}x"] for w, v in mbps.items()],
    )
    assert mbps["write_blocks"] > base * 2.5
