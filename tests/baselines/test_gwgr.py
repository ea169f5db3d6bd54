"""GWGR-style baseline behaviour."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.baselines.gwgr import GwgrClient, build_gwgr
from repro.erasure.rs import ReedSolomonCode
from repro.net.local import LocalTransport
from repro.obs.metrics import MetricsRegistry

BS = 64


@pytest.fixture
def gwgr_setup():
    code = ReedSolomonCode(3, 5)
    transport = LocalTransport()
    node_ids = build_gwgr(transport, code)
    client = GwgrClient("c", transport, node_ids, code, block_size=BS)
    return transport, client, code


def fill(value):
    return np.full(BS, value % 256, dtype=np.uint8)


class TestReadWrite:
    def test_stripe_roundtrip(self, gwgr_setup):
        _, client, _ = gwgr_setup
        client.write_stripe(0, [fill(1), fill(2), fill(3)])
        assert [b[0] for b in client.read_stripe(0)] == [1, 2, 3]

    def test_overwrite_takes_higher_timestamp(self, gwgr_setup):
        _, client, _ = gwgr_setup
        client.write_stripe(0, [fill(1), fill(2), fill(3)])
        client.write_stripe(0, [fill(4), fill(5), fill(6)])
        assert [b[0] for b in client.read_stripe(0)] == [4, 5, 6]

    def test_unwritten_stripe_reads_zero(self, gwgr_setup):
        _, client, _ = gwgr_setup
        assert not any(b.any() for b in client.read_stripe(0))

    def test_single_block_is_read_modify_write(self, gwgr_setup):
        _, client, _ = gwgr_setup
        client.write_stripe(0, [fill(1), fill(2), fill(3)])
        client.write_block(0, 2, fill(9))
        assert [b[0] for b in client.read_stripe(0)] == [1, 2, 9]


class TestMessageStructure:
    def test_write_contacts_all_n_twice(self, gwgr_setup):
        transport, client, code = gwgr_setup
        registry = transport.metrics = MetricsRegistry()
        client.write_stripe(0, [fill(1), fill(2), fill(3)])
        messages = registry.sum_counter
        assert messages("rpc_messages_total", op="get_time") == 2 * code.n
        assert messages("rpc_messages_total", op="store") == 2 * code.n  # 4n total

    def test_read_contacts_all_n(self, gwgr_setup):
        transport, client, code = gwgr_setup
        client.write_stripe(0, [fill(1), fill(2), fill(3)])
        registry = transport.metrics = MetricsRegistry()
        client.read_stripe(0)
        assert registry.sum_counter(
            "rpc_messages_total", op="read_versions"
        ) == 2 * code.n
        # Read bandwidth ~ nB: every node ships its block back.
        assert registry.sum_counter("rpc_bytes_received_total") >= code.n * BS

    def test_granularity_is_k_blocks(self, gwgr_setup):
        """Single-block write moves a whole stripe of data."""
        transport, client, code = gwgr_setup
        client.write_stripe(0, [fill(1), fill(2), fill(3)])
        registry = transport.metrics = MetricsRegistry()
        client.write_block(0, 0, fill(7))
        moved = registry.sum_counter("rpc_bytes_sent_total") + registry.sum_counter(
            "rpc_bytes_received_total"
        )
        assert moved >= 2 * code.n * BS  # read nB back + write nB out


class TestLostUpdateAnomaly:
    def test_concurrent_single_block_updates_can_lose_one(self, gwgr_setup):
        """The paper's criticism: GWGR's read-modify-write of the stripe
        does not ensure consistency of concurrent single-block updates.
        We orchestrate the interleaving deterministically: both clients
        read the stripe, then both write back — the slower write wins
        wholesale and the other update is lost."""
        transport, client, code = gwgr_setup
        other = GwgrClient("d", transport, client.node_ids, code, block_size=BS)
        client.write_stripe(0, [fill(1), fill(2), fill(3)])

        snap_a = client.read_stripe(0)
        snap_b = other.read_stripe(0)
        snap_a[0] = fill(100)  # client updates block 0
        snap_b[1] = fill(200)  # other updates block 1
        client.write_stripe(0, snap_a)
        other.write_stripe(0, snap_b)

        final = client.read_stripe(0)
        # other's write carried the stale block 0 -> client's update lost.
        assert final[1][0] == 200
        assert final[0][0] == 1  # the anomaly: 100 vanished

    def test_version_log_gc(self, gwgr_setup):
        transport, client, _ = gwgr_setup
        client.write_stripe(0, [fill(1), fill(2), fill(3)])
        client.write_stripe(0, [fill(4), fill(5), fill(6)])
        assert client.collect_garbage(0) == 5
        assert [b[0] for b in client.read_stripe(0)] == [4, 5, 6]
