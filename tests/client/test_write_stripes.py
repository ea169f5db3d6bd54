"""Writes (Fig. 5, batched as in §3.11): two rounds per call, then the
per-block loop resumed from the rounds' answers."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.client.config import ClientConfig, WriteStrategy
from repro.core.cluster import Cluster
from repro.crashpoints import CrashPlan
from repro.errors import ClientCrash, StalePlacementError
from repro.ids import BlockAddr
from repro.net.chaos import FaultPlan, FaultRule
from repro.obs import Observability, build_span_tree, trace_ids

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
        assert counter(cluster, "rpc_rounds_total", kind="write") == 2
        # k swap frames and p add frames, a request and a response each.
        assert counter(cluster, "rpc_messages_total", kind="write") == 10
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
        assert counter(cluster, "rpc_rounds_total", kind="write") == 2
        assert_holds(cluster, client, blocks)

    def test_serial_sends_p_add_frames_in_p_rounds(self, transport):
        cluster = make_cluster(transport)
        client = cluster.protocol_client(
            "w", ClientConfig(strategy=WriteStrategy.SERIAL)
        )
        blocks = {0: full_stripe(3)}
        client.write_stripes(blocks)
        assert counter(cluster, "rpc_rounds_total", kind="write") == 3
        assert counter(cluster, "node_ops_total", op="add") == 2
        assert_holds(cluster, client, blocks)

    def test_broadcast_sends_one_add_frame_per_block(self, transport):
        cluster = make_cluster(transport)
        client = cluster.protocol_client(
            "w", ClientConfig(strategy=WriteStrategy.BROADCAST)
        )
        blocks = {0: full_stripe(3)}
        client.write_stripes(blocks)
        # One swap round, then one AJX-bcast round per block.
        assert counter(cluster, "rpc_rounds_total", kind="write") == 4
        assert counter(cluster, "node_ops_total", op="swap") == 3
        assert client.stats.stripe_frames == 3 + 3
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
        # swaps again after recovery rebuilds its replacement, then adds:
        # two more rounds, on top of the first call's two.
        assert counter(cluster, "rpc_rounds_total", kind="write") == 6
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


class RecordingTransport:
    """Records every ``(dst, op)`` the client sends, then delegates."""

    def __init__(self, inner):
        self._inner = inner
        self.sent: list[tuple[str, str]] = []

    def call(self, src, dst, op, *args, **kwargs):
        self.sent.append((dst, op))
        return self._inner.call(src, dst, op, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestResumeFromTheRounds:
    """A block the two rounds leave unfinished continues from the
    answers they got, instead of re-sending what failed."""

    def dropped_summed_add(self):
        """A full-stripe write whose summed add to position 4 is lost
        once: every block is left with one redundant position missing."""
        probe = make_cluster("local")
        last = probe.directory.node_id(probe.slot_of(0, 4))
        cluster = make_cluster("chaos", rules=[
            FaultRule(src="w", dst=last, op="add", drop=1.0, before_op=1),
        ])
        assert cluster.directory.node_id(cluster.slot_of(0, 4)) == last
        client = cluster.protocol_client(
            "w", ClientConfig(rpc_timeout=0.05, backoff=0.0001)
        )
        recorder = RecordingTransport(client.transport)
        client.transport = recorder
        blocks = {0: full_stripe(3)}
        client.write_stripes(blocks)
        assert cluster.chaos.ledger_counts()["drop"] == 1
        return cluster, client, recorder, last, blocks

    def test_lost_add_leads_to_recovery_not_a_resend(self):
        cluster, client, recorder, last, blocks = self.dropped_summed_add()
        to_last = [op for dst, op in recorder.sent if dst == last]
        assert to_last[:2] == ["add", "trylock"]
        assert_holds(cluster, client, blocks)

    def test_one_failed_round_runs_one_recovery_per_stripe(self):
        cluster, client, _, _, blocks = self.dropped_summed_add()
        assert client.stats.recoveries_started == 1
        assert_holds(cluster, client, blocks)

    def test_stale_swap_answer_is_resent_once(self):
        cluster = Cluster(2, 4, block_size=BS, pool=6, seed=5)
        client = cluster.protocol_client("w")
        assert client.placement is not None

        class StaleFirst(RecordingTransport):
            def call(self, src, dst, op, *args, **kwargs):
                self.sent.append((dst, op))
                if len(self.sent) == 1:
                    raise StalePlacementError(dst, 0, seen_gen=0, current_gen=1)
                return self._inner.call(src, dst, op, *args, **kwargs)

        client.transport = recorder = StaleFirst(client.transport)
        client.write(0, 0, value(3))
        assert [op for _, op in recorder.sent] == ["swap", "swap", "add", "add"]
        assert client.stats.stale_refetches == 1
        assert client.stats.write_attempts == 1
        assert np.array_equal(client.read(0, 0), value(3))


class TestCrashAfterTheSwapRound:
    def test_two_blocks_roll_forward_or_back_together(self):
        cluster = make_cluster("local")
        client = cluster.protocol_client("w")
        old = {0: full_stripe(3)}
        client.write_stripes(old)
        victim = cluster.protocol_client("victim")
        plan = CrashPlan()
        plan.arm("write.after_swap")
        victim.crashpoints = plan
        new = {0: value(20), 1: value(21)}
        with pytest.raises(ClientCrash):
            victim.write_stripes({0: new})
        cluster.crash_client("victim")
        driver = cluster.protocol_client(
            "driver", ClientConfig(backoff=0.0001, recovery_wait_limit=5)
        )
        assert driver.recover(0)
        assert cluster.stripe_consistent(0)
        got = [driver.read(0, i) for i in (0, 1)]
        rolled = [np.array_equal(got[i], new[i]) for i in (0, 1)]
        kept = [np.array_equal(got[i], old[0][i]) for i in (0, 1)]
        assert all(rolled) or all(kept)
        assert np.array_equal(driver.read(0, 2), old[0][2])


class TestTracing:
    def test_two_stripe_call_is_one_trace(self):
        cluster = make_cluster("local")
        client = cluster.protocol_client("w")
        client.write_stripes({0: full_stripe(3), 1: full_stripe(3, tag=5)})
        events = cluster.observability.tracer.drain()
        assert trace_ids(events) == ["w:w1"]
        root = build_span_tree(events, "w:w1")
        assert {e.kind for e in root.events} == {"write.begin", "write.end"}
        under: list = []
        stack = list(root.children)
        while stack:
            span = stack.pop()
            under.append(span)
            stack.extend(span.children)
        kinds = [e.kind for span in under for e in span.events]
        # One swap frame per data node, and every add frame, each one
        # node event under the root.
        assert kinds.count("node.swap") == 4
        assert len(kinds) == client.stats.stripe_frames
        node_events = [e for e in events if e.kind.startswith("node.")]
        assert len(node_events) == len(kinds)
        swaps = {s.span_id for s in root.children}
        assert all(
            e.detail["parent"] in swaps
            for e in node_events if e.kind == "node.add"
        )
