"""Ablation — §3.11 deferred redundant-block flush (write-back vs -through).

During sequential writes each redundant block R absorbs k adds; a
write-back store flushes R once the write cursor moves past its stripe
instead of on every add, cutting device writes per redundant block from
k to ~1.
"""

from __future__ import annotations

from repro.core.cluster import Cluster
from repro.storage.store import SimulatedDiskStore

from benchmarks.conftest import print_table

K, N, STRIPES = 8, 10, 24  # p = 2, high-efficiency regime


def _run(write_back: bool) -> tuple[int, int]:
    cluster = Cluster(
        k=K,
        n=N,
        block_size=64,
        store_factory=lambda slot: SimulatedDiskStore(
            write_back=write_back, defer_window=2
        ),
    )
    vol = cluster.client("c")
    for b in range(STRIPES * K):
        vol.write_block(b, bytes([b % 256]))
    for store in cluster.stores.values():
        store.sync()
    total = sum(s.device_writes for s in cluster.stores.values())
    peak_buffer = max(s.buffered_peak for s in cluster.stores.values())
    return total, peak_buffer


def bench_writeback_device_writes():
    (through, _), (back, peak) = _run(False), _run(True)
    data_writes = STRIPES * K
    p = N - K
    rows = [
        ["write-through", through, through - data_writes, "-"],
        ["write-back (§3.11)", back, back - data_writes, peak],
    ]
    print_table(
        f"Ablation — device writes for {STRIPES} sequential stripes, {K}-of-{N}",
        ["store", "device writes", "redundant-block writes", "peak buffered"],
        rows,
    )
    # Write-through: k device writes per redundant block.
    assert through - data_writes == STRIPES * K * p
    # Write-back: ~1 per redundant block — a k-fold reduction.
    assert back - data_writes <= STRIPES * p * 2
    reduction = (through - data_writes) / max(1, back - data_writes)
    print(f"redundant-block device-write reduction: {reduction:.1f}x (ideal: {K}x)")
    assert reduction >= K / 2
