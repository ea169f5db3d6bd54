"""Stripe writes (§3.11): two rounds per call, the per-block fallback."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.client.config import ClientConfig, WriteStrategy
from repro.core.cluster import Cluster
from repro.crashpoints import CrashPlan
from repro.ids import BlockAddr
from repro.net.chaos import FaultPlan, FaultRule
from repro.obs import Observability

BS = 64


def make_cluster(transport: str, k: int = 3, n: int = 5, rules=()):
    """An observed cluster on the in-process transport, or behind a
    ChaosTransport injecting ``rules`` (none by default)."""
    plan = FaultPlan(list(rules)) if transport == "chaos" else None
    return Cluster(
        k=k, n=n, block_size=BS, observability=Observability.create(),
        chaos_plan=plan,
    )


def value(tag: int) -> np.ndarray:
    return (np.arange(BS, dtype=np.uint16) * 3 + 17 * tag).astype(np.uint8)


def full_stripe(k: int, tag: int = 0) -> dict[int, np.ndarray]:
    return {i: value(tag + i) for i in range(k)}


def counter(cluster: Cluster, name: str, **labels) -> int:
    return cluster.observability.registry.sum_counter(name, **labels)


def assert_holds(cluster: Cluster, client, blocks: dict) -> None:
    for stripe, row in blocks.items():
        assert cluster.stripe_consistent(stripe)
        for index, expected in row.items():
            assert np.array_equal(client.read(stripe, index), expected)


@pytest.fixture(params=["local", "chaos"])
def transport(request) -> str:
    return request.param


class TestRounds:
    def test_full_stripe_is_two_rounds_of_n_frames(self, transport):
        cluster = make_cluster(transport)
        client = cluster.protocol_client("w")
        blocks = {0: full_stripe(3)}
        client.write_stripes(blocks)
        assert counter(cluster, "rpc_rounds_total", kind="write_stripe") == 2
        # k swap frames and p add frames, a request and a response each.
        assert counter(cluster, "rpc_messages_total", kind="write_stripe") == 10
        assert counter(cluster, "rpc_rounds_total", kind="write") == 0
        stats = client.stats
        assert (stats.writes, stats.write_attempts, stats.stripe_frames) == (
            3, 3, 5,
        )
        assert_holds(cluster, client, blocks)

    def test_two_stripes_send_one_swap_frame_per_data_node(self, transport):
        cluster = make_cluster(transport)
        client = cluster.protocol_client("w")
        blocks = {0: full_stripe(3), 1: full_stripe(3, tag=5)}
        client.write_stripes(blocks)
        data_nodes = {
            cluster.directory.node_id(cluster.slot_of(stripe, i))
            for stripe in blocks for i in range(3)
        }
        assert len(data_nodes) == 4  # rotation: slots 0-2, then 1-3
        for node in data_nodes:
            assert counter(cluster, "node_ops_total", node=node, op="swap") == 1
        assert counter(cluster, "rpc_rounds_total", kind="write_stripe") == 2
        assert_holds(cluster, client, blocks)

    def test_serial_sends_p_add_frames_in_p_rounds(self, transport):
        cluster = make_cluster(transport)
        client = cluster.protocol_client(
            "w", ClientConfig(strategy=WriteStrategy.SERIAL)
        )
        blocks = {0: full_stripe(3)}
        client.write_stripes(blocks)
        assert counter(cluster, "rpc_rounds_total", kind="write_stripe") == 3
        assert counter(cluster, "node_ops_total", op="add") == 2
        assert_holds(cluster, client, blocks)

    def test_broadcast_writes_block_by_block(self, transport):
        cluster = make_cluster(transport)
        client = cluster.protocol_client(
            "w", ClientConfig(strategy=WriteStrategy.BROADCAST)
        )
        blocks = {0: full_stripe(3)}
        client.write_stripes(blocks)
        assert counter(cluster, "rpc_rounds_total", kind="write_stripe") == 0
        # One swap round and one broadcast round per block.
        assert counter(cluster, "rpc_rounds_total", kind="write") == 6
        assert client.stats.stripe_blocks == 0
        assert_holds(cluster, client, blocks)

    def test_invalid_block_rejected_before_anything_is_sent(self):
        cluster = make_cluster("local")
        client = cluster.protocol_client("w")
        with pytest.raises(IndexError):
            client.write_stripes({0: {0: value(1), 3: value(2)}})
        with pytest.raises(ValueError):
            client.write_stripes({0: {0: value(1)[:10]}})
        assert counter(cluster, "rpc_messages_total") == 0


class TestFallback:
    def test_order_at_one_redundant_node_falls_back(self, transport):
        """A second writer's earlier write reached position 2 but not
        position 3: the summed add meets ORDER there, and the per-block
        adds finish both blocks once the earlier write lands."""
        cluster = make_cluster(transport, k=2, n=4)
        early = cluster.protocol_client(
            "early", ClientConfig(strategy=WriteStrategy.SERIAL)
        )
        writer = cluster.protocol_client("writer")
        last = cluster.directory.node_id(cluster.slot_of(0, 3))
        blocks = {0: {0: value(1), 1: value(2)}}
        errors: list[BaseException] = []

        def write() -> None:
            try:
                writer.write_stripes(blocks)
            except BaseException as exc:  # surfaced by the assertion below
                errors.append(exc)

        thread = threading.Thread(target=write)

        def pause(point, hit, detail) -> None:
            # The early write has swapped and added at position 2 only.
            thread.start()
            deadline = time.monotonic() + 10
            while counter(cluster, "node_order_rejects_total", node=last) < 1:
                assert time.monotonic() < deadline, "summed add never refused"
                time.sleep(0.001)

        plan = CrashPlan()
        plan.arm("write.after_add", hit=1, action=pause)
        early.crashpoints = plan
        early.write(0, 0, value(9))
        thread.join(timeout=30)
        assert not thread.is_alive() and not errors
        # The early write's add, the refused sum, then one add per block.
        assert counter(cluster, "node_ops_total", node=last, op="add") >= 4
        assert_holds(cluster, writer, blocks)

    def test_crashed_data_node_recovers_through_per_block_path(
        self, transport
    ):
        cluster = make_cluster(transport)
        client = cluster.protocol_client("w")
        client.write_stripes({0: full_stripe(3)})
        cluster.crash_storage(cluster.slot_of(0, 1))
        blocks = {0: full_stripe(3, tag=7)}
        client.write_stripes(blocks)
        # Blocks 0 and 2 finish in the second call's two rounds; block 1
        # swaps again after recovery rebuilds its replacement.
        assert counter(cluster, "rpc_rounds_total", kind="write_stripe") == 4
        assert client.stats.recoveries_completed >= 1
        assert client.stats.write_attempts == client.stats.writes == 6
        assert_holds(cluster, client, blocks)

    def test_duplicated_summed_add_is_applied_once(self):
        cluster = make_cluster(
            "chaos",
            rules=[FaultRule(op="add", dup=1.0), FaultRule(op="swap", dup=1.0)],
        )
        client = cluster.protocol_client("w")
        client.write_stripes({0: full_stripe(3)})
        blocks = {0: full_stripe(3, tag=4)}
        client.write_stripes(blocks)
        ledger = cluster.chaos.ledger_counts()
        assert ledger["duplicate"] >= 2 * (3 + 2)
        for j in (3, 4):
            node = cluster.node_for_slot(cluster.slot_of(0, j))
            state = node.peek(BlockAddr(cluster.volume_name, 0, j))
            assert len(state.recentlist) == 6  # k tids per write, once each
        assert_holds(cluster, client, blocks)
