"""§6.2 (text) — recovery throughput and multi-block request latency.

Paper: "three clients are recovering the blocks of a crashed storage
node sequentially.  The aggregate recovery throughput is around
17 MB/s, and latency is around 22ms for a request with 16 blocks."

We measure aggregate recovery throughput (stripes recovered per second
x stripe payload) with three clients splitting the damaged stripes, and
the latency of a 16-block sequential read.  Absolute numbers differ
from 2005 hardware; assertions are sanity bounds plus the structural
fact that recovery moves the whole stripe through the code.
"""

from __future__ import annotations

import threading
import time

from repro.client.config import ClientConfig
from repro.core.cluster import Cluster
from repro.net.local import DelayModel
from repro.sim.calibration import time_kernel

STRIPES = 60
#: Larger blocks amortize the OS sleep granularity behind our injected
#: RPC latency; the paper batched 16 blocks per recovery request for
#: the same reason.
BS = 8192


def bench_recovery_throughput_3_clients():
    cluster = Cluster(
        k=3, n=5, block_size=BS, delay=DelayModel.paper_lan(), seed=4
    )
    seeder = cluster.client("seed")
    for b in range(STRIPES * 3):
        seeder.write_block(b, bytes([b % 256]))
    cluster.crash_storage(0)
    clients = [
        cluster.protocol_client(f"r{i}", ClientConfig()) for i in range(3)
    ]

    def recover_range(client, lo, hi):
        for stripe in range(lo, hi):
            client._start_recovery(stripe)

    start = time.perf_counter()
    share = STRIPES // 3
    threads = [
        threading.Thread(
            target=recover_range, args=(c, i * share, (i + 1) * share)
        )
        for i, c in enumerate(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    recovered_bytes = STRIPES * 3 * BS  # data payload made safe again
    mbps = recovered_bytes / elapsed / 1e6
    print(
        f"\n§6.2 recovery: {STRIPES} stripes by 3 clients in {elapsed:.2f}s "
        f"-> {mbps:.1f} MB/s aggregate (paper: ~17 MB/s on 2005 LAN)"
    )
    assert mbps > 1.0  # must be usably fast
    for s in (0, STRIPES // 2, STRIPES - 1):
        assert cluster.stripe_consistent(s)


def bench_16_block_request_latency():
    cluster = Cluster(k=3, n=5, block_size=BS, delay=DelayModel.paper_lan())
    vol = cluster.client("c")
    payload = [bytes([i]) * BS for i in range(16)]
    vol.write_blocks(0, payload)
    assert vol.read_blocks(0, 16) == payload
    latency = time_kernel(lambda: vol.read_blocks(0, 16), 5)
    print(
        f"\n§6.2 16-block read latency: {latency * 1e3:.1f} ms "
        f"(paper: ~22 ms for a 16-block recovery-read request)"
    )
    assert latency < 0.5  # sanity: well under half a second
