"""§6.1 — optimized vs textbook erasure-code kernels.

"we wrote carefully optimized erasure code functions that run 10-20
times faster than textbook implementations."  Same story here: the
numpy table-gather kernels against a straightforward pure-Python
byte-loop, on the Delta and Add operations of the hot path.
"""

from __future__ import annotations

import numpy as np

from repro.gf import field
from repro.gf.tables import EXP_TABLE, GROUP_ORDER, LOG_TABLE
from repro.sim.calibration import time_kernel

from benchmarks.conftest import print_table

BS = 1024


def textbook_mul_block(coeff: int, block: np.ndarray) -> np.ndarray:
    """The obvious per-byte log/antilog loop, as a textbook writes it."""
    out = np.zeros_like(block)
    if coeff == 0:
        return out
    log_c = int(LOG_TABLE[coeff])
    for i in range(len(block)):
        b = int(block[i])
        if b:
            out[i] = EXP_TABLE[(log_c + int(LOG_TABLE[b])) % GROUP_ORDER]
    return out


def textbook_add_block(acc: np.ndarray, v: np.ndarray) -> None:
    for i in range(len(acc)):
        acc[i] ^= v[i]


def bench_optimized_vs_textbook():
    rng = np.random.default_rng(42)
    blk = rng.integers(0, 256, BS, dtype=np.uint8)
    acc = rng.integers(0, 256, BS, dtype=np.uint8)
    fast_mul = time_kernel(lambda: field.mul_block(37, blk), 200)
    slow_mul = time_kernel(lambda: textbook_mul_block(37, blk), 3)
    fast_add = time_kernel(lambda: field.iadd_block(acc, blk), 500)
    slow_add = time_kernel(lambda: textbook_add_block(acc, blk), 3)
    # Cross-check correctness while we are here.
    assert np.array_equal(field.mul_block(37, blk), textbook_mul_block(37, blk))
    rows = [
        ["GF mul (1KB)", f"{fast_mul * 1e6:.1f}", f"{slow_mul * 1e6:.1f}",
         f"{slow_mul / fast_mul:.0f}x"],
        ["GF add (1KB)", f"{fast_add * 1e6:.1f}", f"{slow_add * 1e6:.1f}",
         f"{slow_add / fast_add:.0f}x"],
    ]
    print_table(
        "§6.1 — optimized vs textbook kernels (us per 1KB block)",
        ["kernel", "optimized", "textbook", "speedup"],
        rows,
    )
    # The paper claims 10-20x for C; vectorized-vs-interpreted Python
    # clears that bar comfortably.
    assert slow_mul / fast_mul >= 10
    assert slow_add / fast_add >= 10
