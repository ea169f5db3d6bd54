"""Basic READ/WRITE protocol behaviour on a healthy cluster."""

from __future__ import annotations

import numpy as np
import pytest

from repro.client.config import ClientConfig, WriteStrategy
from repro.core.cluster import Cluster
from repro.obs.metrics import MetricsRegistry


def fill(cluster, value, size=None):
    size = size or cluster.meta.block_size
    return np.full(size, value, dtype=np.uint8)


def wire_bytes(registry):
    return registry.sum_counter("rpc_bytes_sent_total") + registry.sum_counter(
        "rpc_bytes_received_total"
    )


class TestBasicReadWrite:
    def test_read_of_never_written_block_is_zero(self, small_cluster):
        client = small_cluster.protocol_client("c")
        assert not client.read(0, 0).any()

    def test_write_then_read(self, small_cluster):
        client = small_cluster.protocol_client("c")
        client.write(0, 1, fill(small_cluster, 42))
        assert client.read(0, 1)[0] == 42

    def test_write_keeps_stripe_consistent(self, small_cluster):
        client = small_cluster.protocol_client("c")
        client.write(0, 0, fill(small_cluster, 1))
        client.write(0, 1, fill(small_cluster, 2))
        assert small_cluster.stripe_consistent(0)

    def test_overwrite(self, small_cluster):
        client = small_cluster.protocol_client("c")
        client.write(3, 0, fill(small_cluster, 1))
        client.write(3, 0, fill(small_cluster, 2))
        assert client.read(3, 0)[0] == 2
        assert small_cluster.stripe_consistent(3)

    def test_index_bounds_checked(self, small_cluster):
        client = small_cluster.protocol_client("c")
        with pytest.raises(IndexError):
            client.read(0, 2)  # k == 2
        with pytest.raises(IndexError):
            client.write(0, 5, fill(small_cluster, 1))

    def test_value_size_checked(self, small_cluster):
        client = small_cluster.protocol_client("c")
        with pytest.raises(ValueError):
            client.write(0, 0, np.zeros(7, dtype=np.uint8))

    def test_stripes_are_independent(self, small_cluster):
        client = small_cluster.protocol_client("c")
        for s in range(5):
            client.write(s, 0, fill(small_cluster, s + 1))
        for s in range(5):
            assert client.read(s, 0)[0] == s + 1
            assert small_cluster.stripe_consistent(s)


class TestMessageCounts:
    """Validate the AJX rows of Fig. 1 against measured traffic."""

    def _measured_write(self, strategy, k=3, n=6):
        cluster = Cluster(k=k, n=n, block_size=256)
        client = cluster.protocol_client("c", ClientConfig(strategy=strategy))
        client.write(0, 0, fill(cluster, 1))  # warm block states
        # A fresh registry counts exactly the measured write.
        registry = cluster.transport.metrics = MetricsRegistry()
        client.write(0, 0, fill(cluster, 2))
        return registry, cluster

    @pytest.mark.parametrize(
        "strategy", [WriteStrategy.SERIAL, WriteStrategy.PARALLEL, WriteStrategy.HYBRID]
    )
    def test_unicast_write_messages_2p_plus_2(self, strategy):
        registry, cluster = self._measured_write(strategy)
        p = cluster.code.redundancy
        total = registry.sum_counter("rpc_messages_total")
        assert total == 2 * (p + 1)  # Fig. 1: 2(p+1) messages
        assert registry.sum_counter("rpc_messages_total", op="swap") == 2
        assert registry.sum_counter("rpc_messages_total", op="add") == 2 * p

    def test_unicast_write_bandwidth_p_plus_2_blocks(self):
        registry, cluster = self._measured_write(WriteStrategy.PARALLEL)
        p = cluster.code.redundancy
        block = cluster.meta.block_size
        payload = wire_bytes(registry)
        messages = registry.sum_counter("rpc_messages_total")
        # swap out (B) + swap old value back (B) + p deltas (pB) ~ (p+2)B
        assert payload >= (p + 2) * block
        assert payload < (p + 2) * block + 120 * messages  # + headers

    def test_broadcast_write_messages_p_plus_3(self):
        registry, cluster = self._measured_write(WriteStrategy.BROADCAST)
        p = cluster.code.redundancy
        total = registry.sum_counter("rpc_messages_total")
        assert total == p + 3  # Fig. 1: p + 3 messages

    def test_broadcast_write_bandwidth_3_blocks(self):
        registry, cluster = self._measured_write(WriteStrategy.BROADCAST)
        block = cluster.meta.block_size
        payload = wire_bytes(registry)
        messages = registry.sum_counter("rpc_messages_total")
        assert payload >= 3 * block
        assert payload < 3 * block + 120 * messages  # + headers

    def test_read_is_one_round_trip(self):
        cluster = Cluster(k=3, n=6, block_size=256)
        client = cluster.protocol_client("c")
        client.write(0, 1, fill(cluster, 5))
        registry = cluster.transport.metrics = MetricsRegistry()
        client.read(0, 1)
        # Fig. 1: 2 messages
        assert registry.sum_counter("rpc_messages_total") == 2
        block = cluster.meta.block_size
        payload = registry.sum_counter("rpc_bytes_received_total")
        assert block <= payload < 2 * block  # read bandwidth ~ B


class TestStrategiesEquivalent:
    @pytest.mark.parametrize("strategy", list(WriteStrategy))
    def test_all_strategies_produce_same_stripe(self, strategy):
        cluster = Cluster(k=3, n=6, block_size=128)
        client = cluster.protocol_client(
            "c", ClientConfig(strategy=strategy, hybrid_group_size=2)
        )
        rng = np.random.default_rng(5)
        for i in range(3):
            client.write(0, i, rng.integers(0, 256, 128, dtype=np.uint8))
        assert cluster.stripe_consistent(0)

    def test_hybrid_group_size_one_degenerates_to_serial(self):
        cluster = Cluster(k=2, n=5, block_size=64)
        client = cluster.protocol_client(
            "c", ClientConfig(strategy=WriteStrategy.HYBRID, hybrid_group_size=1)
        )
        client.write(0, 0, fill(cluster, 9, 64))
        assert cluster.stripe_consistent(0)


class TestWriteOrderingSequential:
    def test_same_client_sequential_writes_ordered(self, small_cluster):
        client = small_cluster.protocol_client("c")
        for i in range(10):
            client.write(0, 0, fill(small_cluster, i))
        assert client.read(0, 0)[0] == 9
        assert small_cluster.stripe_consistent(0)

    def test_otid_chain_recorded(self, small_cluster):
        """Each swap returns the previous write's tid for ordering."""
        client = small_cluster.protocol_client("c")
        client.write(0, 0, fill(small_cluster, 1))
        node = small_cluster.node_for_slot(small_cluster.layout.locate(0).node)
        from repro.ids import BlockAddr

        state = node.peek(BlockAddr("vol0", 0, 0))
        assert len(state.recentlist) == 1
