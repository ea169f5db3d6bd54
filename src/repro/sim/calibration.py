"""Cost parameters for the simulator, tuned like the paper's (§5.2).

"We tuned our simulator using the real system to determine values for
the delays to encode and decode blocks for the erasure code, latencies
for various operations on the storage node, network latency, and
bandwidth of each node."

:func:`measure_costs` does the same against *this* repo's real
implementation: it times the numpy erasure-code kernels (Delta, Add,
full encode/decode) and the storage-node operations, and combines them
with the paper's testbed network parameters (50 us RTT, 500 Mbit/s).
:func:`paper_costs` instead uses constants close to the paper's own
Fig. 8a numbers, for runs meant to mirror the 2005 hardware.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from repro.erasure.rs import ReedSolomonCode
from repro.gf import field


@dataclass(frozen=True)
class CostModel:
    """All tunable delays and bandwidths of the simulated system."""

    block_size: int = 1024

    # network
    net_latency: float = 25e-6  # one-way propagation + stack, seconds
    client_bandwidth: float = 500e6 / 8  # bytes/s
    storage_bandwidth: float = 500e6 / 8
    header_bytes: int = 100  # per-message TCP/RPC overhead

    # client CPU
    rpc_client_cpu: float = 20e-6  # issue/complete one RPC (stack+marshal)
    rpc_server_cpu: float = 20e-6  # per-RPC TCP/interrupt cost at server
    delta_cpu: float = 7e-6  # alpha*(v-w) on one block (Fig. 8a Delta)
    encode_cpu_per_block: float = 8e-6  # full encode, per stripe block
    decode_cpu_per_block: float = 10e-6  # full decode, per stripe block

    # storage CPU (per operation service times)
    swap_cpu: float = 5e-6
    add_cpu: float = 4e-6  # includes the GF add (Fig. 8a Add)
    read_cpu: float = 3e-6
    small_op_cpu: float = 2e-6  # order/commit/get_time style ops

    def request_bytes(self, payload: int) -> int:
        return payload + self.header_bytes

    def scaled_to_block(self, new_block_size: int) -> "CostModel":
        """Scale byte-proportional CPU costs to a different block size."""
        ratio = new_block_size / self.block_size
        return replace(
            self,
            block_size=new_block_size,
            delta_cpu=self.delta_cpu * ratio,
            add_cpu=self.add_cpu * ratio,
            encode_cpu_per_block=self.encode_cpu_per_block * ratio,
            decode_cpu_per_block=self.decode_cpu_per_block * ratio,
        )


def paper_costs(block_size: int = 1024) -> CostModel:
    """Constants mirroring the paper's testbed (§5.1, Fig. 8a)."""
    return CostModel().scaled_to_block(block_size)


def time_kernel(fn, repeats: int = 200) -> float:
    """Median-of-three timing of ``fn`` averaged over ``repeats`` runs.

    The kernel and single-op latency benches under ``benchmarks/`` time
    with it too, so the simulator is tuned by the same clock they print.
    """
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(repeats):
            fn()
        samples.append((time.perf_counter() - start) / repeats)
    return sorted(samples)[1]


def measure_costs(
    block_size: int = 1024, k: int = 4, n: int = 6, repeats: int = 200
) -> CostModel:
    """Calibrate CPU costs from this machine's real kernels.

    Network parameters stay at the paper's testbed values (we have no
    physical network), so cross-machine comparisons share a baseline.
    """
    rng = np.random.default_rng(7)
    code = ReedSolomonCode(k, n)
    data = [rng.integers(0, 256, block_size, dtype=np.uint8) for _ in range(k)]
    new = rng.integers(0, 256, block_size, dtype=np.uint8)
    acc = rng.integers(0, 256, block_size, dtype=np.uint8)
    stripe = code.encode(data)
    available = {i: stripe[i] for i in range(1, k + 1)}  # forces real decode

    delta = time_kernel(lambda: code.delta(k, 0, new, data[0]), repeats)
    add = time_kernel(lambda: field.iadd_block(acc, new), repeats)
    encode = time_kernel(lambda: code.encode_redundant(data), repeats)
    decode = time_kernel(lambda: code.decode(available), repeats)

    base = CostModel(block_size=block_size)
    return replace(
        base,
        delta_cpu=delta,
        add_cpu=add + base.small_op_cpu,
        encode_cpu_per_block=encode / max(1, n - k),
        decode_cpu_per_block=decode / k,
        swap_cpu=base.swap_cpu,
    )
