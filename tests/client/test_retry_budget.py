"""Retry budgets bound attempt amplification under a permanent gray node."""

from __future__ import annotations

import time

import pytest

from repro.client.config import ClientConfig
from repro.core.cluster import Cluster
from repro.errors import ReadFailedError, WriteAbortedError
from repro.net.chaos import FaultPlan, FaultRule


def gray_cluster(retry_budget: float | None) -> Cluster:
    """storage-0 is permanently gray (every op stalls past the RPC
    deadline) and its slot is pinned, so remap can never swap the
    sickness away — the worst case for retry amplification."""
    plan = FaultPlan(
        [FaultRule(dst="storage-0", stall=30.0)], seed=5, blackhole=30.0
    )
    cluster = Cluster(
        k=2, n=4, block_size=64, chaos_plan=plan, retry_budget=retry_budget
    )
    assert cluster.chaos is not None
    cluster.chaos.disable()
    loader = cluster.client("loader")
    for block in range(4):
        loader.write_block(block, f"blk{block}".encode())
    cluster.chaos.enable()
    for slot in cluster.directory.slots():
        if cluster.directory.node_id(slot) == "storage-0":
            cluster.directory.pin(slot)
    return cluster


def gray_config(**overrides) -> ClientConfig:
    defaults = dict(
        rpc_timeout=0.02,
        backoff=0.0005,
        backoff_cap=0.002,
        degraded_reads=False,
    )
    defaults.update(overrides)
    return ClientConfig(**defaults)


def block_on_gray_node(cluster: Cluster) -> int:
    client = cluster.protocol_client("layout-probe")
    for block in range(8):
        loc = cluster.layout.locate(block)
        if client.node_of(loc.stripe, loc.data_index) == "storage-0":
            return block
    raise AssertionError("no block maps to storage-0")


class TestRetryBudgetBounds:
    def test_read_attempts_bounded_and_budget_blamed(self):
        cluster = gray_cluster(retry_budget=4.0)
        block = block_on_gray_node(cluster)
        volume = cluster.client("budgeted", gray_config())
        proto = volume.protocol
        assert proto.retry_budget is cluster.retry_budget

        started = time.perf_counter()
        with pytest.raises(ReadFailedError, match="retry budget"):
            volume.read_block(block)
        elapsed = time.perf_counter() - started

        stats = proto.stats
        assert stats.budget_denials >= 1
        assert cluster.retry_budget.exhausted >= 1
        # Bounded amplification: without the budget this client would
        # grind through max_op_attempts (= 400) recovery cycles.  The
        # budget caps retries at ~capacity across *all* retry loops
        # (read retries, recovery lock spins, state fetches).
        assert stats.recoveries_started <= 6
        assert stats.rpc_timeouts + stats.breaker_fast_fails <= 60
        assert elapsed < 10.0

    def test_write_attempts_bounded_and_budget_blamed(self):
        cluster = gray_cluster(retry_budget=3.0)
        block = block_on_gray_node(cluster)
        volume = cluster.client("budgeted-w", gray_config())
        with pytest.raises(WriteAbortedError, match="retry budget"):
            volume.write_block(block, b"doomed")
        assert volume.protocol.stats.budget_denials >= 1

    def test_unlimited_budget_preserves_old_behaviour(self):
        """No budget (the default) keeps retrying; with a healthy
        cluster the op succeeds and no denial is ever recorded."""
        cluster = Cluster(k=2, n=4, block_size=64)
        assert cluster.retry_budget is None
        volume = cluster.client("free", gray_config())
        volume.write_block(0, b"fine")
        assert bytes(volume.read_block(0)[:4]) == b"fine"
        assert volume.protocol.stats.budget_denials == 0

    def test_successes_regenerate_budget(self):
        cluster = Cluster(k=2, n=4, block_size=64, retry_budget=2.0)
        budget = cluster.retry_budget
        assert budget is not None
        volume = cluster.client("refiller")
        volume.write_block(0, b"seed")
        while budget.spend():
            pass
        assert budget.tokens() < 1.0
        for _ in range(30):
            volume.read_block(0)
        # Each successful RPC deposits a fraction of a token (capped at
        # capacity), so useful work earns back the right to retry.
        assert budget.tokens() >= 1.0
        assert budget.spend()
