"""Hedged degraded reads: race a reconstruct against a slow primary."""

from __future__ import annotations

import time

from repro.client.config import ClientConfig
from repro.core.cluster import Cluster
from repro.net.backpressure import RetryBudget
from repro.net.chaos import FaultPlan, FaultRule
from repro.obs import Observability


def slow_read_cluster(stall: float = 0.08, observe: bool = False) -> Cluster:
    """Every data-plane read stalls; get_state (the reconstruct leg)
    stays fast, so the hedge has something to win with."""
    plan = FaultPlan(
        [FaultRule(dst="storage-*", op="read", stall=stall)], seed=1
    )
    return Cluster(
        k=2,
        n=4,
        block_size=64,
        chaos_plan=plan,
        observability=Observability.create() if observe else None,
    )


def hedged_config(**overrides) -> ClientConfig:
    defaults = dict(
        rpc_timeout=1.0,
        degraded_reads=True,
        hedged_reads=True,
        hedge_delay=0.01,
    )
    defaults.update(overrides)
    return ClientConfig(**defaults)


class TestHedgedReads:
    def test_reconstruct_wins_against_slow_primary(self):
        cluster = slow_read_cluster(stall=0.08)
        assert cluster.chaos is not None
        cluster.chaos.disable()
        loader = cluster.client("loader")
        loader.write_block(0, b"hedged payload")
        cluster.chaos.enable()

        reader = cluster.client("reader", hedged_config())
        started = time.perf_counter()
        data = reader.read_block(0)
        elapsed = time.perf_counter() - started
        assert bytes(data[:14]) == b"hedged payload"
        # The reconstruct answered; the 80 ms primary stall was dodged.
        assert elapsed < 0.08
        assert reader.protocol.stats.hedged_reads >= 1

    def test_fast_primary_never_hedges(self):
        cluster = Cluster(k=2, n=4, block_size=64)
        loader = cluster.client("loader")
        loader.write_block(0, b"fast")
        reader = cluster.client(
            "reader", hedged_config(hedge_delay=0.25)
        )
        for _ in range(5):
            assert bytes(reader.read_block(0)[:4]) == b"fast"
        assert reader.protocol.stats.hedged_reads == 0

    def test_hedge_respects_retry_budget(self):
        cluster = slow_read_cluster(stall=0.05)
        assert cluster.chaos is not None
        cluster.chaos.disable()
        cluster.client("loader").write_block(0, b"budgeted")
        cluster.chaos.enable()

        reader = cluster.client("reader", hedged_config())
        budget = reader.protocol.retry_budget = RetryBudget(1.0, refill=0.0)
        while budget.spend():
            pass  # drain: hedging is extra load and may not exceed it

        started = time.perf_counter()
        data = reader.read_block(0)
        elapsed = time.perf_counter() - started
        # Refused hedge: the read waits the primary out instead.
        assert bytes(data[:8]) == b"budgeted"
        assert elapsed >= 0.05
        assert reader.protocol.stats.hedged_reads == 0
        assert reader.protocol.stats.budget_denials >= 1

    def test_hedge_winner_counted_and_traced(self):
        cluster = slow_read_cluster(stall=0.08, observe=True)
        assert cluster.chaos is not None and cluster.observability is not None
        cluster.chaos.disable()
        cluster.client("loader").write_block(0, b"observed")
        cluster.chaos.enable()

        reader = cluster.client("reader", hedged_config())
        assert bytes(reader.read_block(0)[:8]) == b"observed"
        registry = cluster.observability.registry
        assert registry.counter_value(
            "hedged_reads_total", winner="reconstruct"
        ) >= 1
        kinds = {
            event.kind for event in cluster.observability.tracer.events()
        }
        assert "read.hedge.fire" in kinds
        assert "read.hedge.win" in kinds
