"""Ablation — stripe rotation (§3.11) on/off.

With rotation, every node carries its fair (n-k)/n share of redundant
blocks and sequential writes spread add-traffic across all nodes; a
RAID-4-style fixed layout concentrates every add on the same p nodes,
which become the bottleneck.
"""

from __future__ import annotations

import numpy as np

from repro.core.cluster import Cluster
from repro.erasure.striping import StripeLayout
from repro.sim.experiments import run_throughput
from repro.sim.workload import WorkloadSpec

from benchmarks.conftest import print_table


def bench_rotation_balances_redundancy():
    stripes = 200
    spun = [
        StripeLayout(3, 5, rotate=True).redundancy_share(node, stripes)
        for node in range(5)
    ]
    flat = [
        StripeLayout(3, 5, rotate=False).redundancy_share(node, stripes)
        for node in range(5)
    ]
    print_table(
        "Ablation — redundancy share per node (3-of-5, 200 stripes)",
        ["node", "rotated", "fixed (RAID-4-like)"],
        [[i, f"{spun[i]:.2f}", f"{flat[i]:.2f}"] for i in range(5)],
    )
    assert max(spun) - min(spun) < 0.05  # balanced
    assert max(flat) == 1.0 and min(flat) == 0.0  # concentrated


def bench_rotation_sequential_write_throughput():
    """Sequential writes: rotation spreads add-load over all NICs."""
    spec = lambda: WorkloadSpec(
        outstanding=16, sequential=True, duration=0.25, warmup=0.05, stripes=512
    )
    with_rotation = run_throughput(4, 3, 5, spec(), rotate=True)
    without = run_throughput(4, 3, 5, spec(), rotate=False)
    print_table(
        "Ablation — sequential write throughput, 4 clients, 3-of-5",
        ["layout", "MB/s", "max storage NIC util"],
        [
            [
                "rotated",
                f"{with_rotation.write_mbps:.1f}",
                f"{with_rotation.max_storage_nic_utilization:.2f}",
            ],
            [
                "fixed",
                f"{without.write_mbps:.1f}",
                f"{without.max_storage_nic_utilization:.2f}",
            ],
        ],
    )
    # The fixed layout's redundant nodes run hotter (or equal, if the
    # clients are the bottleneck) — never cooler.
    assert (
        without.max_storage_nic_utilization
        >= with_rotation.max_storage_nic_utilization * 0.95
    )
    assert with_rotation.write_mbps >= without.write_mbps * 0.95


def bench_functional_correctness_without_rotation():
    """Rotation is a performance knob only — correctness is identical."""
    cluster = Cluster(k=3, n=5, block_size=64, rotate=False)
    vol = cluster.client("c")
    for b in range(9):
        vol.write_block(b, bytes([b + 1]))
    cluster.crash_storage(4)  # a dedicated redundancy node
    vol.write_block(0, b"post-crash")
    # Without rotation node 4 held redundancy of *every* stripe;
    # sweep to repair the stripes no access has touched yet.
    vol.monitor_sweep(range(3))
    for s in range(3):
        assert cluster.stripe_consistent(s)
    assert vol.read_block(0)[:10] == b"post-crash"
