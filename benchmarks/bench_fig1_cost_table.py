"""Fig. 1 — protocol cost comparison (AJX-par/-bcast/-ser, FAB, GWGR).

Regenerates the analytic table and validates every AJX row (and the
FAB/GWGR message structure) against traffic measured on the functional
cluster / baseline implementations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    FabClient,
    GwgrClient,
    build_fab,
    build_gwgr,
    cost_table,
    format_cost_table,
)
from repro.client.config import ClientConfig, WriteStrategy
from repro.core.cluster import Cluster
from repro.erasure.rs import ReedSolomonCode
from repro.net.local import LocalTransport
from repro.obs.metrics import MetricsRegistry

from benchmarks.conftest import print_table

K, N, BS = 3, 5, 1024


def _wire(registry: MetricsRegistry) -> tuple[int, int]:
    """(messages, payload bytes) the registry has counted so far."""
    total = registry.sum_counter
    return (
        total("rpc_messages_total"),
        total("rpc_bytes_sent_total") + total("rpc_bytes_received_total"),
    )


def _measure_ajx(strategy: WriteStrategy) -> tuple[int, int, int]:
    """(write_messages, read_messages, write_payload_bytes) measured."""
    cluster = Cluster(k=K, n=N, block_size=BS)
    registry = cluster.transport.metrics = MetricsRegistry()
    client = cluster.protocol_client("c", ClientConfig(strategy=strategy))
    value = np.full(BS, 1, np.uint8)
    client.write(0, 0, value)
    msgs_before, bytes_before = _wire(registry)
    client.write(0, 0, np.full(BS, 2, np.uint8))
    msgs_written, bytes_written = _wire(registry)
    client.read(0, 0)
    msgs_read, _ = _wire(registry)
    return (
        msgs_written - msgs_before,
        msgs_read - msgs_written,
        bytes_written - bytes_before,
    )


def bench_fig1_table(benchmark):
    """Regenerate Fig. 1 and check AJX rows against measured traffic."""
    rows = benchmark(cost_table, N, K)
    p = N - K
    measured = {
        "AJX-par": _measure_ajx(WriteStrategy.PARALLEL),
        "AJX-bcast": _measure_ajx(WriteStrategy.BROADCAST),
        "AJX-ser": _measure_ajx(WriteStrategy.SERIAL),
    }
    table = []
    for row in rows:
        meas = measured.get(row.scheme)
        table.append(
            [
                row.scheme,
                row.min_granularity_blocks,
                row.write_latency_rt,
                row.write_messages,
                meas[0] if meas else "-",
                row.read_messages,
                meas[1] if meas else "-",
                f"{row.write_bandwidth_blocks:g}B",
                f"{meas[2] / BS:.2f}B" if meas else "-",
            ]
        )
    print_table(
        "Fig. 1 (paper vs measured), 3-of-5, B=1KB",
        ["scheme", "gran", "wrRT", "wrMsg", "meas", "rdMsg", "meas", "wrBW", "measBW"],
        table,
    )
    print(format_cost_table(N, K, BS))
    # Every AJX row's message counts must match the formulas exactly.
    for scheme, (wmsg, rmsg, wbytes) in measured.items():
        row = next(r for r in rows if r.scheme == scheme)
        assert wmsg == row.write_messages, scheme
        assert rmsg == row.read_messages, scheme
        # Bandwidth within header overhead of the formula.
        assert wbytes >= row.write_bandwidth_blocks * BS
        assert wbytes <= row.write_bandwidth_blocks * BS + 150 * wmsg


def bench_fig1_fab_gwgr_structure(benchmark):
    """FAB/GWGR rows: every write touches all n nodes (4n messages)."""

    def measure() -> dict[str, int]:
        code = ReedSolomonCode(K, N)
        transport = LocalTransport()
        registry = transport.metrics = MetricsRegistry()
        fab = FabClient("cf", transport, build_fab(transport, code), code, BS)
        gwgr = GwgrClient("cg", transport, build_gwgr(transport, code), code, BS)
        blocks = [np.full(BS, i + 1, np.uint8) for i in range(K)]
        out = {}
        for name, action in (
            ("fab_write", lambda: fab.write_stripe(0, blocks)),
            ("gwgr_write", lambda: gwgr.write_stripe(0, blocks)),
            ("gwgr_read", lambda: gwgr.read_stripe(0)),
        ):
            before = registry.sum_counter("rpc_messages_total")
            action()
            out[name] = registry.sum_counter("rpc_messages_total") - before
        return out

    out = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_table(
        "Fig. 1 baselines measured (3-of-5)",
        ["op", "messages", "paper"],
        [
            ["FAB write", out["fab_write"], f"4n = {4 * N} (+2n commit piggyback)"],
            ["GWGR write", out["gwgr_write"], f"4n = {4 * N}"],
            ["GWGR read", out["gwgr_read"], f"2n = {2 * N}"],
        ],
    )
    assert out["gwgr_write"] == 4 * N
    assert out["gwgr_read"] == 2 * N
    assert out["fab_write"] >= 4 * N  # order+write (+explicit commit round)
