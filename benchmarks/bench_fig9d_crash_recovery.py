"""Fig. 9(d) — throughput over time across a storage-node crash.

Paper setup: two clients read/write random blocks under a 3-of-5 code;
28 minutes in, a storage node crashes; throughput drops sharply, then
gradually climbs back as clients recover blocks on access.

We reproduce the same experiment time-compressed on the functional
cluster (seconds, 90 stripes, injected RPC latency so recovery cost is
visible).  Expected shape: pre-crash plateau -> dip at the crash ->
ramp back up once every stripe has been recovered.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.client.config import ClientConfig
from repro.core.cluster import Cluster
from repro.net.local import DelayModel

from benchmarks.conftest import print_series

STRIPES = 90
BLOCKS = STRIPES * 3  # k = 3
PRE = 1.2  # seconds before the crash
DIP = 0.8  # window right after the crash (recovery storm)
POST = 1.5  # window after recovery settles


def bench_fig9d_crash_timeline():
    cluster = Cluster(
        k=3, n=5, block_size=64, delay=DelayModel(latency=300e-6), seed=9
    )
    clients = [
        cluster.client(f"c{i}", ClientConfig(backoff=0.0005)) for i in range(2)
    ]
    for b in range(BLOCKS):
        clients[0].write_block(b, bytes([b % 256]))
    completions: list[float] = []
    comp_lock = threading.Lock()
    stop = threading.Event()

    def worker(vol, seed):
        rng = np.random.default_rng(seed)
        while not stop.is_set():
            b = int(rng.integers(0, BLOCKS))
            if rng.random() < 0.5:
                vol.write_block(b, bytes([int(rng.integers(0, 256))]))
            else:
                vol.read_block(b)
            with comp_lock:
                completions.append(time.monotonic())

    threads = [
        threading.Thread(target=worker, args=(vol, i))
        for i, vol in enumerate(clients)
    ]
    start = time.monotonic()
    for t in threads:
        t.start()
    time.sleep(PRE)
    crash_at = time.monotonic() - start
    cluster.crash_storage(0)
    time.sleep(DIP + POST)
    stop.set()
    for t in threads:
        t.join()

    rel = [c - start for c in completions]

    def rate(lo, hi):
        count = sum(1 for c in rel if lo <= c < hi)
        return count / (hi - lo)

    pre = rate(0.3, crash_at)
    dip = rate(crash_at, crash_at + DIP)
    post = rate(crash_at + DIP + 0.5, crash_at + DIP + POST)
    buckets = [
        (f"{lo:.1f}s", f"{rate(lo, lo + 0.25):.0f} ops/s")
        for lo in np.arange(0, crash_at + DIP + POST - 0.25, 0.25)
    ]
    print_series(
        f"Fig. 9d — ops/s over time (storage crash at t={crash_at:.1f}s)",
        "t",
        {"2 clients, 3-of-5, random 50/50 r/w": buckets},
    )
    print(f"pre-crash {pre:.0f} ops/s | dip {dip:.0f} | recovered {post:.0f}")
    # The Fig. 9d shape: crash knocks throughput down hard...
    assert dip < pre * 0.8, (pre, dip)
    # ...and on-access recovery brings it back up.
    assert post > dip * 1.2, (dip, post)
    # The damaged node's blocks are all usable again.
    vol = cluster.client("checker")
    for s in (0, STRIPES // 2, STRIPES - 1):
        vol.read_block(s * 3)
