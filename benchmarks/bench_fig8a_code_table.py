"""Fig. 8(a) — chosen erasure codes: resiliency and computation times.

The paper lists, for the real 4-7-node runs, each code's failure
resiliency and the times for Delta (client-side alpha*(v-w) on 1KB),
Add (node-side GF add of 1KB), and full stripe encode/decode.  We
time our numpy kernels for the same codes; absolute numbers are
machine-dependent, but all must be "very small" (microseconds) and the
resiliency column is exact.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.resiliency import resiliency_profile
from repro.erasure.rs import ReedSolomonCode
from repro.gf import field
from repro.sim.calibration import time_kernel

from benchmarks.conftest import print_table

BS = 1024

#: The 4-7 storage-node codes of Fig. 8a (restricted to n-k <= k, the
#: correctness precondition of Section 4).
CODES = [(2, 4), (3, 5), (4, 6), (3, 6), (5, 7), (4, 7)]


def bench_fig8a_code_table():
    """Time every code's four kernels and print the Fig. 8a table."""
    rng = np.random.default_rng(2005)
    rows, times = [], []
    for k, n in CODES:
        code = ReedSolomonCode(k, n)
        data = [rng.integers(0, 256, BS, dtype=np.uint8) for _ in range(k)]
        stripe = code.encode(data)
        available = {i: stripe[i] for i in range(n - k, n)}  # all-redundant path
        new = rng.integers(0, 256, BS, dtype=np.uint8)
        acc = stripe[-1].copy()
        us = [
            time_kernel(lambda: code.delta(k, 0, new, data[0]), 300) * 1e6,
            time_kernel(lambda: field.iadd_block(acc, new), 300) * 1e6,
            time_kernel(lambda: code.encode_redundant(data), 100) * 1e6,
            time_kernel(lambda: code.decode(available), 100) * 1e6,
        ]
        times += us
        profile = ", ".join(str(e) for e in resiliency_profile(n, k, "serial"))
        rows.append([f"{k}-of-{n}", profile, *(f"{t:.1f}" for t in us)])
    print_table(
        "Fig. 8a — codes, resiliency, computation times (1KB block, us)",
        ["code", "resiliency (serial)", "Delta", "Add", "encode", "decode"],
        rows,
    )
    # Shape assertions: every one of the 24 times is microseconds-small,
    # and the resiliency of 2-of-4 matches the paper's "1c1s, 0c2s".
    assert len(times) == 4 * len(CODES)
    for t in times:
        assert t < 1000, times  # < 1 ms
    profile = [str(e) for e in resiliency_profile(4, 2, "serial")]
    assert "1c1s" in profile and "0c2s" in profile
