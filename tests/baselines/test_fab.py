"""FAB-style baseline behaviour."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.fab import ConcurrentWriteError, FabClient, Timestamp, build_fab
from repro.erasure.rs import ReedSolomonCode
from repro.net.local import LocalTransport
from repro.obs.metrics import MetricsRegistry

BS = 64


@pytest.fixture
def fab_setup():
    code = ReedSolomonCode(3, 5)
    transport = LocalTransport()
    node_ids = build_fab(transport, code)
    client = FabClient("c", transport, node_ids, code, block_size=BS)
    return transport, client, code


def fill(value):
    return np.full(BS, value % 256, dtype=np.uint8)


class TestReadWrite:
    def test_stripe_roundtrip(self, fab_setup):
        _, client, _ = fab_setup
        client.write_stripe(0, [fill(1), fill(2), fill(3)])
        data = client.read_stripe(0)
        assert [b[0] for b in data] == [1, 2, 3]

    def test_block_write_reencodes_stripe(self, fab_setup):
        _, client, _ = fab_setup
        client.write_stripe(0, [fill(1), fill(2), fill(3)])
        client.write_block(0, 1, fill(9))
        assert client.read_block(0, 1)[0] == 9
        assert client.read_block(0, 0)[0] == 1

    def test_unwritten_reads_zero(self, fab_setup):
        _, client, _ = fab_setup
        assert not client.read_block(0, 0).any()

    def test_node_count_validated(self, fab_setup):
        transport, _, code = fab_setup
        with pytest.raises(ValueError):
            FabClient("x", transport, ["only-one"], code)


class TestMessageStructure:
    def test_every_write_contacts_all_n_nodes(self, fab_setup):
        """The structural weakness Fig. 1 highlights."""
        transport, client, code = fab_setup
        client.write_stripe(0, [fill(1), fill(2), fill(3)])
        registry = transport.metrics = MetricsRegistry()
        client.write_stripe(0, [fill(4), fill(5), fill(6)])
        for op in ("order", "write", "commit"):
            assert registry.sum_counter("rpc_messages_total", op=op) == 2 * code.n

    def test_read_contacts_k_nodes(self, fab_setup):
        transport, client, code = fab_setup
        client.write_stripe(0, [fill(1), fill(2), fill(3)])
        registry = transport.metrics = MetricsRegistry()
        client.read_stripe(0)
        assert registry.sum_counter("rpc_messages_total", op="read") == 2 * code.k


class TestVersionLog:
    def test_old_versions_retained_until_gc(self, fab_setup):
        transport, client, _ = fab_setup
        client.write_stripe(0, [fill(1), fill(2), fill(3)])
        client.write_stripe(0, [fill(4), fill(5), fill(6)])
        logs = sum(
            transport._handlers[nid].log_bytes() for nid in client.node_ids
        )
        assert logs > 0  # old versions on disk — AJX keeps none

    def test_gc_reclaims_log(self, fab_setup):
        transport, client, _ = fab_setup
        client.write_stripe(0, [fill(1), fill(2), fill(3)])
        client.write_stripe(0, [fill(4), fill(5), fill(6)])
        dropped = client.collect_garbage(0)
        assert dropped == 5  # one old version per node
        assert client.read_block(0, 0)[0] == 4


class TestConcurrency:
    def test_ordering_rejects_stale_timestamp(self, fab_setup):
        """FAB semantics the paper quotes: concurrent writes to the same
        stripe return an exception for the loser."""
        transport, client, code = fab_setup
        other = FabClient("d", transport, client.node_ids, code, block_size=BS)
        other._counter = 100  # other client is far ahead in time
        other.write_stripe(0, [fill(7), fill(8), fill(9)])
        with pytest.raises(ConcurrentWriteError):
            client.write_stripe(0, [fill(1), fill(2), fill(3)])
        # The winner's data is intact.
        assert other.read_block(0, 0)[0] == 7

    def test_timestamps_order_by_counter_then_client(self):
        assert Timestamp(1, "b") < Timestamp(2, "a")
        assert Timestamp(1, "a") < Timestamp(1, "b")
