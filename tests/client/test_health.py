"""HealthRegistry: EWMA scoring, circuit breakers, hedge delays."""

from __future__ import annotations

import numpy as np
import pytest

from repro.client.config import ClientConfig, WriteStrategy
from repro.client.health import (
    ALPHA,
    HEDGE_DELAY_FLOOR,
    HEDGE_DELAY_MULTIPLIER,
    PROBE_INTERVAL,
    CircuitState,
    HealthRegistry,
)
from repro.core.cluster import Cluster
from repro.net.chaos import FaultPlan, FaultRule
from repro.obs.metrics import MetricsRegistry


class TestScoring:
    def test_unknown_node_is_healthy(self):
        health = HealthRegistry()
        assert health.score("storage-0") == 1.0
        assert health.state("storage-0") is CircuitState.CLOSED
        assert health.latency_ewma("storage-0") is None

    def test_latency_ewma_tracks_successes(self):
        health = HealthRegistry()
        health.observe_success("s", 0.100)
        assert health.latency_ewma("s") == pytest.approx(0.100)
        health.observe_success("s", 0.200)
        assert health.latency_ewma("s") == pytest.approx(0.100 + ALPHA * 0.100)

    def test_failures_decay_score_successes_heal_it(self):
        health = HealthRegistry()
        for _ in range(5):
            health.observe_failure("s", "error", threshold=3)
        degraded = health.score("s")
        assert degraded < 0.5
        for _ in range(10):
            health.observe_success("s", 0.001)
        assert health.score("s") > degraded


class TestBreaker:
    def test_timeouts_trip_at_threshold(self):
        health = HealthRegistry()
        assert not health.observe_failure("s", "timeout", threshold=3)
        assert not health.observe_failure("s", "timeout", threshold=3)
        assert health.observe_failure("s", "timeout", threshold=3)
        assert health.state("s") is CircuitState.OPEN
        assert health.breaker_opens == 1

    def test_success_resets_the_trip_counter(self):
        health = HealthRegistry()
        health.observe_failure("s", "timeout", threshold=3)
        health.observe_failure("s", "timeout", threshold=3)
        health.observe_success("s", 0.001)
        assert not health.observe_failure("s", "timeout", threshold=3)
        assert health.state("s") is CircuitState.CLOSED

    def test_unavailable_does_not_open_the_circuit(self):
        """Detected fail-stop crashes remap unconditionally; opening
        the breaker would keep condemning a node that crash-restarts
        under the same id (the restart policy)."""
        health = HealthRegistry()
        for _ in range(10):
            assert not health.observe_failure("s", "unavailable", threshold=2)
        assert health.state("s") is CircuitState.CLOSED
        assert health.allow_request("s")

    def test_open_fails_fast_then_probes(self):
        health = HealthRegistry()
        for _ in range(2):
            health.observe_failure("s", "timeout", threshold=2)
        assert health.state("s") is CircuitState.OPEN
        decisions = [health.allow_request("s") for _ in range(PROBE_INTERVAL)]
        assert decisions == [False] * (PROBE_INTERVAL - 1) + [True]
        assert health.state("s") is CircuitState.HALF_OPEN

    def test_half_open_success_closes(self):
        health = HealthRegistry()
        for _ in range(2):
            health.observe_failure("s", "timeout", threshold=2)
        while not health.allow_request("s"):
            pass
        health.observe_success("s", 0.001)
        assert health.state("s") is CircuitState.CLOSED
        assert health.allow_request("s")

    def test_half_open_failure_reopens(self):
        health = HealthRegistry()
        for _ in range(2):
            health.observe_failure("s", "timeout", threshold=2)
        while not health.allow_request("s"):
            pass
        assert health.state("s") is CircuitState.HALF_OPEN
        # The probe itself timing out must not need `threshold` more
        # timeouts: one failed probe re-condemns the node.
        assert not health.observe_failure("s", "timeout", threshold=2)
        assert health.state("s") is CircuitState.OPEN

    def test_probe_pacing_is_deterministic(self):
        """Attempt-counted (not wall-clock) pacing: two registries fed
        the same outcome sequence make identical decisions."""
        def drive(health: HealthRegistry) -> list[bool]:
            for _ in range(3):
                health.observe_failure("s", "timeout", threshold=3)
            return [health.allow_request("s") for _ in range(3 * PROBE_INTERVAL)]

        assert drive(HealthRegistry()) == drive(HealthRegistry())


class TestHedgeDelay:
    def test_cold_node_uses_floor(self):
        health = HealthRegistry()
        assert health.hedge_delay("s") == HEDGE_DELAY_FLOOR

    def test_warm_node_scales_with_ewma(self):
        health = HealthRegistry()
        health.observe_success("s", 0.010)
        assert health.hedge_delay("s") == pytest.approx(
            0.010 * HEDGE_DELAY_MULTIPLIER
        )

    def test_floor_wins_over_tiny_ewma(self):
        health = HealthRegistry()
        health.observe_success("s", HEDGE_DELAY_FLOOR / HEDGE_DELAY_MULTIPLIER / 2)
        assert health.hedge_delay("s") == HEDGE_DELAY_FLOOR


class TestExport:
    def test_gauges_reflect_state(self):
        registry = MetricsRegistry()
        health = HealthRegistry()
        health.metrics = registry
        health.observe_success("s", 0.001)
        assert registry.gauge("node_health_score", node="s").value == (
            pytest.approx(health.score("s"))
        )
        for _ in range(2):
            health.observe_failure("s", "timeout", threshold=2)
        assert registry.gauge("circuit_state", node="s").value == (
            CircuitState.OPEN.value
        )

    def test_snapshot_is_a_copy(self):
        health = HealthRegistry()
        health.observe_success("s", 0.001)
        snap = health.snapshot()
        snap["s"].score = -1.0
        assert health.score("s") == pytest.approx(1.0)


STRATEGIES = [WriteStrategy.PARALLEL, WriteStrategy.BROADCAST]


def strategy_id(strategy: WriteStrategy) -> str:
    return strategy.name.lower()


class TestAddLegsShareTheGate:
    """Every add leg, unicast or one receiver of an AJX-bcast frame,
    passes the breaker gate and is scored like any other RPC."""

    @pytest.mark.parametrize("strategy", STRATEGIES, ids=strategy_id)
    def test_dropped_add_is_suspicion_not_remap(self, strategy):
        plan = FaultPlan(
            [FaultRule(dst="storage-3", op="add", drop=1.0, before_op=1)],
            seed=1,
        )
        cluster = Cluster(2, 4, block_size=64, chaos_plan=plan)
        slot = cluster.slot_of(0, 3)
        assert cluster.directory.node_id(slot) == "storage-3"
        client = cluster.protocol_client(
            "w", ClientConfig(strategy=strategy, rpc_timeout=0.05)
        )
        value = np.full(64, 7, dtype=np.uint8)
        client.write(0, 0, value)
        assert cluster.directory.incarnation(slot) == 0
        assert client.stats.remaps == 0
        assert cluster.health.snapshot()["storage-3"].failures == 1
        assert bytes(client.read(0, 0)) == bytes(value)

    @pytest.mark.parametrize("strategy", STRATEGIES, ids=strategy_id)
    def test_open_circuit_keeps_adds_off_the_node(self, strategy):
        cluster = Cluster(2, 4, block_size=64)
        node = cluster.node_for_slot(cluster.slot_of(0, 3))
        assert node.node_id == "storage-3"
        client = cluster.protocol_client("w", ClientConfig(strategy=strategy))
        for _ in range(client.config.suspicion_threshold):
            cluster.health.observe_failure(
                "storage-3", "timeout", client.config.suspicion_threshold
            )
        assert cluster.health.state("storage-3") is CircuitState.OPEN
        # The circuit state each add finds on arrival at the node.
        arrivals: list[CircuitState] = []
        handle = node.handle

        def spy(op, *args, **kwargs):
            if op == "add":
                arrivals.append(cluster.health.state("storage-3"))
            return handle(op, *args, **kwargs)

        node.handle = spy
        value = np.full(64, 9, dtype=np.uint8)
        client.write(0, 0, value)
        assert CircuitState.OPEN not in arrivals
        assert client.stats.breaker_fast_fails > 0
        assert bytes(client.read(0, 0)) == bytes(value)
