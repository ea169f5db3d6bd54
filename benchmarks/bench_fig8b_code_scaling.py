"""Fig. 8(b) — computation time for larger codes (1KB block).

The paper's point: full en/decoding time grows with k, but the Delta
and Add operations used by common-case writes stay approximately
constant — so the protocol's common path is insensitive to code size.
"""

from __future__ import annotations

import numpy as np

from repro.erasure.rs import ReedSolomonCode
from repro.gf import field
from repro.sim.calibration import time_kernel

from benchmarks.conftest import print_series

BS = 1024
KS = [2, 4, 8, 12, 16]
P = 2  # small redundancy, the paper's "highly-efficient" regime


def bench_fig8b_shape():
    """Measure the full series and assert the Fig. 8b shape."""
    rng = np.random.default_rng(8)
    encode, decode, delta, add = [], [], [], []
    for k in KS:
        code = ReedSolomonCode(k, k + P)
        data = [rng.integers(0, 256, BS, dtype=np.uint8) for _ in range(k)]
        stripe = code.encode(data)
        available = {i: stripe[i] for i in range(P, k + P)}
        new, old = data[0], stripe[0]
        acc = stripe[-1].copy()
        encode.append((k, time_kernel(lambda: code.encode_redundant(data), 100) * 1e6))
        decode.append((k, time_kernel(lambda: code.decode(available), 100) * 1e6))
        delta.append((k, time_kernel(lambda: code.delta(k, 0, new, old), 300) * 1e6))
        add.append((k, time_kernel(lambda: field.iadd_block(acc, new), 300) * 1e6))
    print_series(
        "Fig. 8b — computation time vs k (1KB block, us)",
        "k",
        {
            "full encode": [(k, f"{t:.1f}") for k, t in encode],
            "full decode": [(k, f"{t:.1f}") for k, t in decode],
            "Delta": [(k, f"{t:.2f}") for k, t in delta],
            "Add": [(k, f"{t:.2f}") for k, t in add],
        },
    )
    # Full encode grows with k (roughly linearly)...
    assert encode[-1][1] > encode[0][1] * 2
    # ...but Delta and Add stay approximately constant.
    assert delta[-1][1] < delta[0][1] * 3 + 10
    assert add[-1][1] < add[0][1] * 3 + 10
    # En/decoding times are close to each other (paper shows one curve).
    assert decode[-1][1] < encode[-1][1] * 5
