"""Quickstart: a reliable block store on a 3-of-5 Reed-Solomon code.

Run:  python examples/quickstart.py

Shows the public API end to end: deploy a cluster, write and read
blocks (the erasure code is invisible to the application), survive a
storage-node crash, and inspect what the protocol cost.
"""

from __future__ import annotations

from collections import Counter

from repro import Cluster
from repro.baselines import format_cost_table
from repro.obs import Observability


def main() -> None:
    # Five storage nodes, any two may fail without losing data, at only
    # 5/3 = 1.67x storage (3-way replication would cost 3x).
    # The metrics registry counts every message on the wire.
    obs = Observability.create()
    cluster = Cluster(k=3, n=5, block_size=1024, observability=obs)
    volume = cluster.client("app-1")

    print("== writing ==")
    volume.write_block(0, b"hello erasure-coded world")
    volume.write_bytes(1, b"a larger object spanning several blocks " * 80)
    print("block 0:", volume.read_block(0)[:25])

    print("\n== crash one storage node ==")
    crashed = cluster.crash_storage(0)
    print(f"crashed {crashed}; reading through the failure...")
    # The read detects the failure, remaps the node, reconstructs the
    # stripe from the surviving blocks, and returns the right data.
    print("block 0:", volume.read_block(0)[:25])
    print("stripe consistent again:", cluster.stripe_consistent(0))

    print("\n== protocol cost (failure-free), Fig. 1 ==")
    print(format_cost_table(5, 3))

    print("\n== traffic actually measured ==")
    messages = Counter()
    for row in obs.registry.snapshot()["counters"]:
        if row["name"] == "rpc_messages_total":
            messages[row["labels"]["op"]] += row["value"]
    for op, count in sorted(messages.items()):
        print(f"  {op:<12} {count:>5} messages")

    print("\n== housekeeping ==")
    batches = volume.collect_garbage()
    print(f"gc processed {batches} batches; metadata now "
          f"{cluster.metadata_bytes()} bytes over {cluster.block_count()} blocks")


if __name__ == "__main__":
    main()
