"""Fig. 8(c) — tolerated client/storage crashes vs code redundancy.

Exact reproduction: the table is closed-form (Section 4 theorems).  It
depends only on n - k, not on n or k individually — asserted below.
"""

from __future__ import annotations

from repro.analysis.resiliency import resiliency_profile

from benchmarks.conftest import print_table


def bench_fig8c_table():
    rows = []
    for p in range(1, 17):
        k = max(2, p)  # keep n-k <= k
        serial = ", ".join(str(e) for e in resiliency_profile(k + p, k, "serial"))
        parallel = ", ".join(
            str(e) for e in resiliency_profile(k + p, k, "parallel")
        )
        rows.append([p, serial, parallel])
    print_table(
        "Fig. 8c — tolerated failures vs n-k (XcYs = X client, Y storage)",
        ["n-k", "serial adds", "parallel adds"],
        rows,
    )
    # Depends only on n-k: recompute with much larger k.
    for p in (2, 4, 8):
        small = resiliency_profile(max(2, p) + p, max(2, p), "serial")
        large = resiliency_profile(16 + p, 16, "serial")
        assert small == large
    # Parallel profiles never dominate serial ones.
    for p in range(1, 17):
        k = max(2, p)
        serial = {e.clients: e.storage for e in resiliency_profile(k + p, k, "serial")}
        parallel = {
            e.clients: e.storage for e in resiliency_profile(k + p, k, "parallel")
        }
        for clients, storage in parallel.items():
            assert storage <= serial.get(clients, -1) or clients not in serial
