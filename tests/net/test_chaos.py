"""Chaos layer: FaultPlan determinism, ChaosTransport faults, deadlines."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.client.config import ClientConfig, WriteStrategy
from repro.core.cluster import Cluster
from repro.errors import (
    NodeUnavailableError,
    PartitionedError,
    RpcTimeoutError,
)
from repro.net.chaos import ChaosTransport, FaultPlan, FaultRule
from repro.net.local import LocalTransport
from repro.net.message import Envelope
from repro.net.transport import RpcHandler
from repro.obs import Observability
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER


class Echo(RpcHandler):
    def __init__(self):
        self.calls = []

    def handle(self, op, *args, env=None):
        self.calls.append((op, args))
        return (op, args)


def chaos_net(rules, seed=0, blackhole=30.0):
    inner = LocalTransport()
    servers = {name: Echo() for name in ("a", "b", "c")}
    for name, server in servers.items():
        inner.register(name, server)
    chaos = ChaosTransport(inner, FaultPlan(rules, seed=seed, blackhole=blackhole))
    chaos.register("client")
    return chaos, servers


class TestFaultRule:
    def test_patterns_and_window(self):
        rule = FaultRule(dst="storage-*", op="add", after_op=5, before_op=10)
        assert rule.matches("c", "storage-3", "add", 5)
        assert rule.matches("c", "storage-3", "add", 9)
        assert not rule.matches("c", "storage-3", "add", 4)
        assert not rule.matches("c", "storage-3", "add", 10)
        assert not rule.matches("c", "storage-3", "read", 7)
        assert not rule.matches("c", "client-1", "add", 7)


class TestFaultPlan:
    def test_decisions_are_deterministic(self):
        rules = [FaultRule(drop=0.3, dup=0.3, delay=0.001, jitter=0.002)]
        plan_a = FaultPlan(rules, seed=99)
        plan_b = FaultPlan(rules, seed=99)
        sweep = [
            ("c", f"s{i % 4}", op, i)
            for i in range(200)
            for op in ("read", "add")
        ]
        decisions_a = [plan_a.decide(*args) for args in sweep]
        decisions_b = [plan_b.decide(*args) for args in sweep]
        assert decisions_a == decisions_b
        assert any(d.drop for d in decisions_a)
        assert any(d.dup for d in decisions_a)

    def test_seed_changes_decisions(self):
        rules = [FaultRule(drop=0.5)]
        sweep = [("c", "s", "read", i) for i in range(64)]
        drops = lambda seed: [  # noqa: E731
            FaultPlan(rules, seed=seed).decide(*args).drop for args in sweep
        ]
        assert drops(1) != drops(2)

    def test_generate_is_reproducible(self):
        nodes = [f"storage-{i}" for i in range(5)]
        assert FaultPlan.generate(7, nodes).rules == FaultPlan.generate(7, nodes).rules
        assert (
            FaultPlan.generate(7, nodes).rules != FaultPlan.generate(8, nodes).rules
        )


class TestChaosTransport:
    def test_passthrough_without_matching_rules(self):
        chaos, servers = chaos_net([FaultRule(op="never-called", drop=1.0)])
        assert chaos.call("client", "a", "ping", 1) == ("ping", (1,))
        assert chaos.ledger == []

    def test_drop_times_out_at_deadline(self):
        chaos, servers = chaos_net([FaultRule(drop=1.0)])
        start = time.perf_counter()
        with pytest.raises(RpcTimeoutError):
            chaos.call("client", "a", "ping", env=Envelope(timeout=0.05))
        assert time.perf_counter() - start < 1.0
        assert servers["a"].calls == []  # never delivered
        assert chaos.ledger_counts() == {"drop": 1}

    def test_drop_without_deadline_blackholes(self):
        chaos, _ = chaos_net([FaultRule(drop=1.0)], blackhole=0.05)
        start = time.perf_counter()
        with pytest.raises(RpcTimeoutError):
            chaos.call("client", "a", "ping")
        assert time.perf_counter() - start >= 0.05

    def test_gray_stall_bounded_by_deadline(self):
        """A call into a gray node returns at the deadline — the case
        that, before RPC deadlines existed, blocked the caller for the
        full stall."""
        chaos, servers = chaos_net([FaultRule(dst="a", stall=30.0)])
        start = time.perf_counter()
        with pytest.raises(RpcTimeoutError):
            chaos.call("client", "a", "ping", env=Envelope(timeout=0.05))
        assert time.perf_counter() - start < 1.0
        assert chaos.ledger_counts() == {"stall_timeout": 1}
        # Other nodes are unaffected.
        assert chaos.call("client", "b", "ping") == ("ping", ())

    def test_delay_delivers_late_result(self):
        chaos, servers = chaos_net([FaultRule(delay=0.02)])
        start = time.perf_counter()
        assert chaos.call("client", "a", "ping") == ("ping", ())
        assert time.perf_counter() - start >= 0.02
        assert chaos.ledger_counts() == {"delay": 1}

    def test_delay_beyond_deadline_still_delivers(self):
        """The classic ambiguity: the caller times out, yet the server
        applied the op — retries must cope with both outcomes."""
        chaos, servers = chaos_net([FaultRule(delay=0.2)])
        with pytest.raises(RpcTimeoutError):
            chaos.call("client", "a", "ping", env=Envelope(timeout=0.02))
        assert servers["a"].calls == [("ping", ())]
        assert chaos.ledger_counts() == {"late_delivery": 1}

    def test_duplicate_delivers_twice_returns_once(self):
        chaos, servers = chaos_net([FaultRule(dup=1.0)])
        assert chaos.call("client", "a", "ping", 5) == ("ping", (5,))
        assert servers["a"].calls == [("ping", (5,)), ("ping", (5,))]
        assert chaos.ledger_counts() == {"duplicate": 1}

    def test_duplicate_follows_a_stale_stamp_answer(self):
        """A stale placement stamp is an answer, not a raised error, so
        the replay the plan scheduled for the message is still delivered
        and ledgered."""
        from repro.erasure.rs import ReedSolomonCode
        from repro.erasure.striping import StripeLayout
        from repro.errors import StalePlacementError
        from repro.ids import BlockAddr
        from repro.storage.node import StorageNode, VolumeMeta

        meta = VolumeMeta(ReedSolomonCode(2, 4), StripeLayout(2, 4), 16)
        node = StorageNode("storage-0", 0, {"vol": meta})
        node.metrics = MetricsRegistry()
        addr = BlockAddr("vol", 0, 0)
        node.set_generation(addr, 2)
        inner = LocalTransport()
        inner.register("storage-0", node)
        chaos = ChaosTransport(inner, FaultPlan([FaultRule(op="read", dup=1.0)]))
        chaos.register("client")
        (answer,) = chaos.call("client", "storage-0", "read", {addr: (1, ())})
        assert isinstance(answer, StalePlacementError)
        assert chaos.ledger_counts() == {"duplicate": 1}
        assert node.metrics.sum_counter("node_ops_total", op="read") == 2

    def test_disable_stops_injection(self):
        chaos, servers = chaos_net([FaultRule(drop=1.0)])
        chaos.disable()
        assert chaos.call("client", "a", "ping") == ("ping", ())
        assert chaos.ledger == []
        chaos.enable()
        with pytest.raises(RpcTimeoutError):
            chaos.call("client", "a", "ping", env=Envelope(timeout=0.01))

    def test_crash_and_partition_delegate(self):
        chaos, _ = chaos_net([])
        chaos.crash("a")
        assert chaos.is_crashed("a")
        with pytest.raises(NodeUnavailableError):
            chaos.call("client", "a", "ping")
        chaos.partition(["client"], ["b"])
        with pytest.raises(PartitionedError):
            chaos.call("client", "b", "ping")
        chaos.heal()
        assert chaos.call("client", "b", "ping") == ("ping", ())
        assert "client" in chaos.members()


class TestBroadcastUnderFailures:
    def test_broadcast_partly_crashed_partly_partitioned(self):
        """One broadcast over a stripe whose members are healthy,
        crashed, partitioned, and lossy — each leg reports its own
        failure, none aborts the batch."""
        chaos, servers = chaos_net([FaultRule(dst="c", drop=1.0)])
        chaos.crash("a")
        chaos.partition(["client"], ["b"])
        results = chaos.broadcast(
            "client", ["a", "b", "c"], "ping", env=Envelope(timeout=0.02)
        )
        assert isinstance(results["a"], NodeUnavailableError)
        assert isinstance(results["b"], PartitionedError)
        assert isinstance(results["c"], RpcTimeoutError)
        chaos.heal()
        chaos.disable()
        results = chaos.broadcast("client", ["b", "c"], "ping")
        assert results == {"b": ("ping", ()), "c": ("ping", ())}

    def test_fault_free_plan_keeps_one_multicast_frame(self):
        """A plan that injects nothing leaves AJX-bcast's Fig. 1 wire
        accounting alone: one frame carries every add, not one per leg."""

        def write_counts(plan):
            obs = Observability(MetricsRegistry(), NULL_TRACER, None)
            cluster = Cluster(
                3, 5, block_size=64, chaos_plan=plan, observability=obs
            )
            client = cluster.protocol_client(
                "w", ClientConfig(strategy=WriteStrategy.BROADCAST)
            )
            client.write(0, 0, np.full(64, 7, dtype=np.uint8))
            return (
                obs.registry.sum_counter("rpc_messages_total", kind="write"),
                obs.registry.sum_counter("rpc_bytes_sent_total", kind="write"),
            )

        assert write_counts(FaultPlan([])) == write_counts(None)

    def test_multicast_legs_still_draw_their_link_counts(self):
        """Legs sent as one frame still advance their per-link op count,
        so a windowed rule fires on the same message as with unicasts."""
        chaos, _ = chaos_net([FaultRule(dst="c", drop=1.0, after_op=1)])
        env = Envelope(timeout=0.02)
        first = chaos.broadcast("client", ["a", "c"], "ping", env=env)
        second = chaos.broadcast("client", ["a", "c"], "ping", env=env)
        assert first == {"a": ("ping", ()), "c": ("ping", ())}
        assert second["a"] == ("ping", ())
        assert isinstance(second["c"], RpcTimeoutError)
        assert chaos.ledger_key() == (("drop", "client", "c", "ping", 1),)

    def test_base_broadcast_mixed_failures(self):
        t = LocalTransport()
        for name in ("a", "b", "c"):
            t.register(name, Echo())
        t.register("client")
        t.crash("a")
        t.partition(["client"], ["b"])
        results = t.broadcast("client", ["a", "b", "c"], "ping", 1)
        assert isinstance(results["a"], NodeUnavailableError)
        assert isinstance(results["b"], PartitionedError)
        assert results["c"] == ("ping", (1,))


class TestTargetedHeal:
    def test_heal_one_pair_leaves_other(self):
        t = LocalTransport()
        t.register("s1", Echo())
        t.register("s2", Echo())
        t.register("client")
        t.partition(["client"], ["s1", "s2"])
        t.heal(["client"], ["s1"])
        assert t.call("client", "s1", "ping") == ("ping", ())
        with pytest.raises(PartitionedError):
            t.call("client", "s2", "ping")
        t.heal()
        assert t.call("client", "s2", "ping") == ("ping", ())

    def test_heal_requires_both_sides(self):
        t = LocalTransport()
        with pytest.raises(ValueError):
            t.heal(["a"])


class TestClusterUnderChaos:
    def test_duplicated_adds_are_idempotent(self):
        """Every add delivered twice: replay detection via recentlist
        must keep the stripe consistent (GF addition is not naturally
        idempotent)."""
        plan = FaultPlan([FaultRule(op="add", dup=1.0), FaultRule(op="swap", dup=1.0)])
        cluster = Cluster(k=2, n=4, block_size=64, chaos_plan=plan)
        vol = cluster.client("dup-writer")
        for i in range(6):
            vol.write_block(i, bytes([i + 1]))
        assert cluster.chaos.ledger_counts()["duplicate"] >= 6
        for stripe in {cluster.layout.locate(i).stripe for i in range(6)}:
            assert cluster.stripe_consistent(stripe)
        for i in range(6):
            assert vol.read_block(i)[0] == i + 1

    def test_gray_node_read_completes_within_deadline(self):
        """Acceptance: a client reading through a gray (stalled) node
        returns within its deadline budget via the degraded/suspicion
        path.  Without rpc_timeout this read would block for the full
        30s stall."""
        cluster = Cluster(k=2, n=4, block_size=64)
        vol = cluster.client(
            "writer", ClientConfig(strategy=WriteStrategy.SERIAL)
        )
        vol.write_block(0, b"survives gray nodes")
        gray = cluster.directory.node_id(cluster.layout.locate(0).node)
        plan = FaultPlan([FaultRule(dst=gray, stall=30.0)])
        # Wire an impatient reader through a chaos wrapper around the
        # same fabric; the writer above stays fault-free.
        chaos = ChaosTransport(cluster.transport, plan)
        from repro.client.protocol import ProtocolClient

        reader = ProtocolClient(
            client_id="impatient",
            transport=chaos,
            directory=cluster.directory,
            volume=cluster.volume_name,
            meta=cluster.meta,
            config=ClientConfig(
                rpc_timeout=0.05,
                suspicion_threshold=2,
                degraded_reads=True,
            ),
        )
        loc = cluster.layout.locate(0)
        start = time.perf_counter()
        block = reader.read(loc.stripe, loc.data_index)
        elapsed = time.perf_counter() - start
        assert bytes(block[:19]) == b"survives gray nodes"
        assert elapsed < 5.0  # deadline-bounded, not stall-bounded
        assert reader.stats.rpc_timeouts >= 1


class BlockServer(RpcHandler):
    """Answers a read like a storage node, a one-address ``[ReadResult]``,
    so corrupt faults have bytes to flip."""

    def __init__(self, size=32):
        import numpy as np

        from repro.storage.state import LockMode, ReadResult

        self.result = ReadResult(
            block=np.zeros(size, dtype=np.uint8), lmode=LockMode.UNL
        )
        self.empty = ReadResult(block=None, lmode=LockMode.UNL)

    def handle(self, op, *args, env=None):
        if op == "read":
            return [self.result]
        if op == "read-bottom":
            return [self.empty]
        return (op, args)


def corrupt_net(rules, seed=0):
    inner = LocalTransport()
    inner.register("a", BlockServer())
    chaos = ChaosTransport(inner, FaultPlan(rules, seed=seed))
    chaos.register("client")
    return chaos


class TestCorruptFault:
    def test_flips_exactly_one_bit_and_ledgers(self):
        import numpy as np

        chaos = corrupt_net([FaultRule(op="read", corrupt=1.0)])
        (result,) = chaos.call("client", "a", "read")
        flipped = np.unpackbits(result.block).sum()
        assert flipped == 1  # one bit, nothing else
        assert chaos.ledger_counts() == {"corrupt": 1}

    def test_server_copy_untouched(self):
        """The flip mangles the response in flight, not the node's state."""
        inner = LocalTransport()
        server = BlockServer()
        inner.register("a", server)
        chaos = ChaosTransport(
            inner, FaultPlan([FaultRule(op="read", corrupt=1.0)])
        )
        chaos.register("client")
        chaos.call("client", "a", "read")
        assert not server.result.block.any()

    def test_non_read_results_pass_clean(self):
        chaos = corrupt_net([FaultRule(corrupt=1.0)])  # any op
        assert chaos.call("client", "a", "ping", 7) == ("ping", (7,))
        assert chaos.ledger == []  # nothing flippable: no event recorded

    def test_bottom_read_passes_clean(self):
        chaos = corrupt_net([FaultRule(op="read", corrupt=1.0)])
        assert chaos.call("client", "a", "read-bottom")[0].block is None
        assert chaos.ledger == []

    def test_deterministic_across_runs(self):
        import numpy as np

        runs = []
        for _ in range(2):
            chaos = corrupt_net(
                [FaultRule(op="read", corrupt=0.5)], seed=17
            )
            blocks = [
                chaos.call("client", "a", "read")[0].block.copy()
                for _ in range(40)
            ]
            runs.append((blocks, chaos.ledger_key()))
        assert runs[0][1] == runs[1][1]
        assert all(
            np.array_equal(x, y) for x, y in zip(runs[0][0], runs[1][0])
        )
        assert 0 < len(runs[0][1]) < 40  # probabilistic, seeded

    def test_zero_probability_is_digest_neutral(self):
        """A rule carrying corrupt=0.0 draws nothing: decisions (and so
        every other fault's outcomes) match a plan without the field."""
        base = [FaultRule(drop=0.3, dup=0.2)]
        extended = [FaultRule(drop=0.3, dup=0.2, corrupt=0.0)]
        sweep = [("c", "s", op, i) for i in range(200) for op in ("read", "add")]
        decisions_a = [
            FaultPlan(base, seed=23).decide(*args) for args in sweep
        ]
        decisions_b = [
            FaultPlan(extended, seed=23).decide(*args) for args in sweep
        ]
        assert decisions_a == decisions_b

    def test_generate_with_corrupt_is_reproducible(self):
        nodes = [f"storage-{i}" for i in range(4)]
        assert (
            FaultPlan.generate(3, nodes, corrupt=0.1).rules
            == FaultPlan.generate(3, nodes, corrupt=0.1).rules
        )
        assert any(
            r.corrupt for r in FaultPlan.generate(3, nodes, corrupt=0.1).rules
        )
