"""Mid-reconfiguration unbound slots are retried, not surfaced raw.

A client whose (stale) placement map points at a slot the directory has
not bound yet — a pool grow racing the lookup — used to surface
``UnknownSlotError`` straight to the application.  The error is
transient by construction (the binding lands as soon as the grow
commits), so the client now retries it through the shared backoff
policy, bounded by the retry budget, exactly like a busy shed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.client.config import ClientConfig, WriteStrategy
from repro.core.cluster import Cluster
from repro.directory.local import UnknownSlotError
from repro.net.backpressure import RetryBudget


class LateBindingDirectory:
    """Delegates to a real directory, but the first ``failures`` lookups
    of every slot raise UnknownSlotError — the reconfiguration window."""

    def __init__(self, inner, failures: int):
        self._inner = inner
        self._failures = failures
        self._seen: dict[int, int] = {}

    def node_id(self, slot: int) -> str:
        count = self._seen.get(slot, 0)
        if count < self._failures:
            self._seen[slot] = count + 1
            raise UnknownSlotError(f"slot {slot} is not bound")
        return self._inner.node_id(slot)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.fixture
def cluster():
    return Cluster(2, 4, block_size=32, seed=3)


def payload() -> np.ndarray:
    return np.arange(32, dtype=np.uint8)


class TestUnboundRetry:
    @pytest.mark.parametrize(
        "strategy", list(WriteStrategy), ids=lambda s: s.value
    )
    def test_transient_unbound_is_absorbed(self, cluster, strategy):
        """Every add strategy rides out the window, BROADCAST included:
        its per-receiver lookups retry like a unicast call's."""
        client = cluster.protocol_client("late", ClientConfig(strategy=strategy))
        client.directory = LateBindingDirectory(client.directory, failures=2)
        client.write(0, 0, payload())
        assert np.array_equal(client.read(0, 0), payload())
        # Two retries each for the data slot and both redundant slots.
        assert client.stats.unbound_retries == 6

    def test_hedged_read_takes_the_same_path(self, cluster):
        seeded = cluster.protocol_client("seeder")
        seeded.write(1, 0, payload())
        client = cluster.protocol_client(
            "late-hedger", ClientConfig(hedged_reads=True, hedge_delay=0.5)
        )
        client.directory = LateBindingDirectory(client.directory, failures=1)
        assert np.array_equal(client.read(1, 0), payload())
        assert client.stats.unbound_retries > 0

    def test_reads_take_the_same_path(self, cluster):
        seeded = cluster.protocol_client("seeder")
        seeded.write(1, 0, payload())
        client = cluster.protocol_client("late-reader")
        client.directory = LateBindingDirectory(client.directory, failures=1)
        assert np.array_equal(client.read(1, 0), payload())
        assert client.stats.unbound_retries > 0

    def test_persistent_unbound_still_surfaces(self, cluster):
        """A slot that never binds is a real error: after the bounded
        retries the raw UnknownSlotError must reach the caller."""
        client = cluster.protocol_client("doomed")
        client.directory = LateBindingDirectory(
            client.directory, failures=10_000
        )
        with pytest.raises(UnknownSlotError):
            client.read(0, 0)
        assert client.stats.unbound_retries > 0

    def test_retry_budget_bounds_the_loop(self, cluster):
        """With the shared budget drained, the first retry is denied and
        the error surfaces immediately — reconfiguration churn cannot
        amplify into a retry storm."""
        client = cluster.protocol_client("broke")
        client.directory = LateBindingDirectory(client.directory, failures=3)
        budget = RetryBudget(capacity=1, refill=0.0)
        while budget.spend():
            pass
        client.retry_budget = budget
        denials_before = client.stats.budget_denials
        with pytest.raises(UnknownSlotError):
            client.read(0, 0)
        assert client.stats.unbound_retries == 0
        assert client.stats.budget_denials > denials_before
