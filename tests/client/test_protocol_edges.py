"""Protocol edge cases: retry exhaustion, config validation, stats."""

from __future__ import annotations

import numpy as np
import pytest

from repro.client.config import ClientConfig, WriteStrategy
from repro.core.cluster import Cluster
from repro.errors import ReadFailedError, WriteAbortedError
from repro.storage.state import LockMode


def fill(size, value):
    return np.full(size, value % 256, dtype=np.uint8)


def lock_stripe(cluster, stripe, holder="wedge"):
    """Take L1 everywhere and never release (holder stays 'alive')."""
    client = cluster.protocol_client(holder)
    for j in range(cluster.code.n):
        client.rpc("recovery_phase1", stripe, j, "trylock", LockMode.L1,
                   holder)
    return client


class TestRetryExhaustion:
    def test_read_gives_up_against_a_wedged_lock(self, small_cluster):
        lock_stripe(small_cluster, 0)
        vol = small_cluster.protocol_client(
            "reader", ClientConfig(max_op_attempts=4, backoff=0.0001)
        )
        with pytest.raises(ReadFailedError):
            vol.read(0, 0)

    def test_write_gives_up_against_a_wedged_lock(self, small_cluster):
        lock_stripe(small_cluster, 0)
        vol = small_cluster.protocol_client(
            "writer",
            ClientConfig(max_write_attempts=2, max_op_attempts=3, backoff=0.0001),
        )
        with pytest.raises(WriteAbortedError):
            vol.write(0, 0, fill(64, 1))

    def test_other_stripes_usable_while_one_is_wedged(self, small_cluster):
        lock_stripe(small_cluster, 0)
        vol = small_cluster.protocol_client(
            "writer", ClientConfig(max_op_attempts=5, backoff=0.0001)
        )
        vol.write(1, 0, fill(64, 9))
        assert vol.read(1, 0)[0] == 9


class TestConfig:
    def test_default_strategy_is_parallel(self):
        assert ClientConfig().strategy is WriteStrategy.PARALLEL

    def test_config_is_immutable(self):
        with pytest.raises(AttributeError):
            ClientConfig().t_p = 5


class TestStats:
    def test_write_attempts_counted(self, small_cluster):
        vol = small_cluster.protocol_client("c")
        vol.write(0, 0, fill(64, 1))
        vol.write(0, 0, fill(64, 2))
        assert vol.stats.writes == 2
        assert vol.stats.write_attempts >= 2

    def test_reads_counted(self, small_cluster):
        vol = small_cluster.protocol_client("c")
        vol.write(0, 0, fill(64, 1))
        vol.read(0, 0)
        vol.read(0, 0)
        assert vol.stats.reads == 2

    def test_bump_thread_safe(self):
        import threading

        from repro.client.protocol import ClientStats

        stats = ClientStats()

        def bump_many():
            for _ in range(1000):
                stats.bump("reads")

        threads = [threading.Thread(target=bump_many) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert stats.reads == 4000


class TestValueHandling:
    def test_write_requires_exact_block_shape(self, small_cluster):
        vol = small_cluster.protocol_client("c")
        with pytest.raises(ValueError):
            vol.write(0, 0, np.zeros((2, 32), dtype=np.uint8))

    def test_write_accepts_any_uint8_convertible(self, small_cluster):
        vol = small_cluster.protocol_client("c")
        vol.write(0, 0, np.arange(64, dtype=np.uint8))
        assert vol.read(0, 0)[5] == 5

    def test_read_returns_fresh_array(self, small_cluster):
        vol = small_cluster.protocol_client("c")
        vol.write(0, 0, fill(64, 3))
        first = vol.read(0, 0)
        first[:] = 0
        assert vol.read(0, 0)[0] == 3


class TestHybridGrouping:
    @pytest.mark.parametrize("group_size", [1, 2, 3, 4, 10])
    def test_any_group_size_correct(self, group_size):
        cluster = Cluster(k=4, n=8, block_size=32)
        vol = cluster.protocol_client(
            "c",
            ClientConfig(strategy=WriteStrategy.HYBRID, hybrid_group_size=group_size),
        )
        vol.write(0, 0, fill(32, 7))
        vol.write(0, 3, fill(32, 9))
        assert cluster.stripe_consistent(0)

    def test_group_size_zero_treated_as_one(self):
        cluster = Cluster(k=2, n=4, block_size=32)
        vol = cluster.protocol_client(
            "c", ClientConfig(strategy=WriteStrategy.HYBRID, hybrid_group_size=0)
        )
        vol.write(0, 0, fill(32, 7))
        assert cluster.stripe_consistent(0)


class TestOrderBackoff:
    def test_first_order_retry_backs_off_from_the_base(self, small_cluster):
        """A write whose adds meet ORDER sleeps its backoff sequence from
        attempt 0 (which resets the policy to its base), so its first
        wait does not inherit the long sleeps of the client's earlier
        operations."""
        stalled = small_cluster.protocol_client("stalled")
        # A write that swapped and never sent its adds: the redundant
        # nodes have not seen its tid, so the next write meets ORDER.
        stalled.rpc("write", 0, 0, "swap", fill(64, 1), stalled._next_tid(0))
        writer = small_cluster.protocol_client(
            "writer", ClientConfig(order_retry_limit=2)
        )
        attempts: list[int] = []
        writer._sleep_backoff = attempts.append
        writer.write(0, 0, fill(64, 2))
        assert writer.stats.order_retries >= 2
        assert attempts[:2] == [0, 1]
        assert writer.read(0, 0)[0] == 2
        assert small_cluster.stripe_consistent(0)
