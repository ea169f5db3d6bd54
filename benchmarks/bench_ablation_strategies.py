"""Ablation — update-strategy tradeoff (serial / parallel / hybrid / bcast).

Section 4's tradeoff, measured: parallel and broadcast give 2-round
writes but exponentially worse client-failure tolerance; serial gives
1+p rounds with the best tolerance; hybrid interpolates.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis.resiliency import d_parallel, d_serial
from repro.client.config import ClientConfig, WriteStrategy
from repro.core.cluster import Cluster
from repro.net.local import DelayModel

from benchmarks.conftest import print_table

K, N, BS = 4, 8, 1024  # p = 4 redundant blocks


def _median_write_latency(strategy: WriteStrategy) -> float:
    cluster = Cluster(
        k=K, n=N, block_size=BS, delay=DelayModel(latency=500e-6)
    )
    client = cluster.protocol_client(
        "c", ClientConfig(strategy=strategy, hybrid_group_size=2)
    )
    value = np.full(BS, 1, np.uint8)
    client.write(0, 0, value)
    samples = []
    for i in range(9):
        start = time.perf_counter()
        client.write(0, 0, np.full(BS, i, np.uint8))
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def bench_strategy_latency_vs_resiliency():
    latencies = {s: _median_write_latency(s) for s in WriteStrategy}
    rows = []
    for strategy in WriteStrategy:
        if strategy in (WriteStrategy.SERIAL, WriteStrategy.HYBRID):
            tolerance = [d_serial(N, K, tp) for tp in range(3)]
        else:
            tolerance = [d_parallel(N, K, tp) for tp in range(3)]
        rows.append(
            [
                strategy.value,
                f"{latencies[strategy] * 1e3:.1f} ms",
                ", ".join(
                    f"{tp}c{max(td, 0)}s" for tp, td in enumerate(tolerance) if td >= 0
                ),
            ]
        )
    print_table(
        f"Ablation — write strategy, {K}-of-{N} (p={N-K}), 0.5ms RPC latency",
        ["strategy", "median write latency", "tolerated failures"],
        rows,
    )
    # Latency ordering: parallel/broadcast < hybrid < serial.
    assert latencies[WriteStrategy.PARALLEL] < latencies[WriteStrategy.SERIAL]
    assert latencies[WriteStrategy.HYBRID] < latencies[WriteStrategy.SERIAL]
    assert latencies[WriteStrategy.PARALLEL] <= latencies[WriteStrategy.HYBRID] * 1.3
    # Resiliency ordering at t_p = 2: serial strictly better.
    assert d_serial(N, K, 2) > d_parallel(N, K, 2)
