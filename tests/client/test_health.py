"""HealthRegistry: EWMA scoring, circuit breakers, hedge delays."""

from __future__ import annotations

import pytest

from repro.client.health import (
    ALPHA,
    HEDGE_DELAY_FLOOR,
    HEDGE_DELAY_MULTIPLIER,
    PROBE_INTERVAL,
    CircuitState,
    HealthRegistry,
)
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
