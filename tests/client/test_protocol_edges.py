"""Protocol edge cases: retry exhaustion, config validation, stats."""

from __future__ import annotations

import numpy as np
import pytest

from repro.client.config import ClientConfig, WriteStrategy
from repro.core.cluster import Cluster
from repro.errors import ReadFailedError, WriteAbortedError
from repro.ids import BlockAddr
from repro.storage.state import LockMode


def fill(size, value):
    return np.full(size, value % 256, dtype=np.uint8)


def lock_stripe(cluster, stripe, holder="wedge"):
    """Take L1 everywhere and never release (holder stays 'alive')."""
    client = cluster.protocol_client(holder)
    for j in range(cluster.code.n):
        client._call(stripe, j, "trylock", BlockAddr("vol0", stripe, j),
                     LockMode.L1, caller=holder)
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
