"""§6.3 — latency breakdown: communication dominates computation.

Paper: computation (incl. finite-field arithmetic) < 5% of operation
latency; a 4-block write took < 3ms on a 3-of-5 code with memory-backed
storage; a disk's ~10ms would dominate.

We run the functional cluster with the paper's LAN delay model and
compare measured wall-clock latency with the pure computation time of
the same operations.
"""

from __future__ import annotations

from repro.core.cluster import Cluster
from repro.net.local import DelayModel
from repro.sim.calibration import measure_costs, time_kernel

BS = 1024


def bench_4block_write_latency():
    """The paper's 4-block write, against the LAN delay model."""
    cluster = Cluster(k=3, n=5, block_size=BS, delay=DelayModel.paper_lan())
    vol = cluster.client("c")
    data = [bytes([i]) * BS for i in range(4)]
    vol.write_blocks(0, data)  # warm the block states
    latency = time_kernel(lambda: vol.write_blocks(0, data), 10)
    print(f"\n§6.3 4-block write latency: {latency * 1e3:.2f} ms (paper: < 3 ms)")
    assert latency < 0.05  # sanity bound: tens of ms at worst in-process


def bench_computation_fraction():
    """Computation share of a write's latency (< 5% in the paper)."""
    costs = measure_costs(block_size=BS, k=3, n=5, repeats=50)
    cluster = Cluster(k=3, n=5, block_size=BS, delay=DelayModel.paper_lan())
    vol = cluster.client("c")
    vol.write_block(0, b"warm")
    write_latency = time_kernel(lambda: vol.write_block(0, b"x"), 10)
    p = 2
    compute = costs.delta_cpu * p + costs.add_cpu * p
    fraction = compute / write_latency
    print(
        f"\n§6.3 computation fraction of write latency: {fraction:.1%} "
        f"({compute * 1e6:.1f} us of {write_latency * 1e3:.2f} ms; paper: <5%)"
    )
    assert fraction < 0.25  # communication dominates
    # Against a 10 ms disk, computation would be utterly negligible.
    assert compute / 10e-3 < 0.01
