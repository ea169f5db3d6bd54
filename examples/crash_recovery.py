"""Failure handling tour: storage crashes, client crashes, monitoring.

Run:  python examples/crash_recovery.py

Walks through the paper's failure scenarios on a live cluster:
1. a storage node fail-stops and is recovered on access (§3.5, Fig. 6);
2. a client dies mid-write, leaving a partial write that the monitor
   detects and repairs (§3.10);
3. a second storage node dies — still within the 3-of-5 budget.
"""

from __future__ import annotations

import numpy as np

from repro import Cluster
from repro.ids import Tid


def main() -> None:
    cluster = Cluster(k=3, n=5, block_size=1024)
    volume = cluster.client("app")
    print("seeding 30 blocks over 10 stripes...")
    for b in range(30):
        volume.write_block(b, f"block-{b}".encode())

    # --- scenario 1: storage crash + on-access recovery --------------------
    victim = cluster.crash_storage(2)
    print(f"\n[1] storage node {victim} crashed")
    data = volume.read_block(6)
    print(f"    read block 6 through the failure: {data[:8]!r}")
    stats = volume.protocol.stats
    print(f"    recoveries run: {stats.recoveries_completed}, "
          f"node remaps: {stats.remaps}")

    # --- scenario 2: client crash mid-write --------------------------------
    print("\n[2] a client crashes between swap and adds (partial write)")
    doomed = cluster.protocol_client("doomed")
    doomed.rpc("write", 0, 0, "swap", np.full(1024, 0xAB, np.uint8), Tid(1, 0, "doomed"))
    cluster.crash_client("doomed")
    print("    stripe 0 consistent?", cluster.stripe_consistent(0))
    volume.monitor.stale_after = 0.0  # treat any pending write as stale
    report = volume.monitor_sweep(range(10))
    print(f"    monitor: probed {report.probed} blocks, "
          f"found {report.stale_writes} stale write(s), "
          f"repaired stripes {report.recovered_stripes}")
    print("    stripe 0 consistent?", cluster.stripe_consistent(0))
    print("    block 0 rolled back to:", volume.read_block(0)[:8])

    # --- scenario 3: a second storage crash --------------------------------
    victim2 = cluster.crash_storage(4)
    print(f"\n[3] second storage node {victim2} crashed (budget: n-k = 2)")
    for b in (0, 10, 20, 29):
        assert volume.read_block(b)[: len(f"block-{b}")] == f"block-{b}".encode()
    print("    all data still readable; sweeping to restore full redundancy")
    volume.monitor_sweep(range(10))
    print("    stripes consistent:",
          all(cluster.stripe_consistent(s) for s in range(10)))


if __name__ == "__main__":
    main()
