"""Transport semantics: RPC, fail-stop, partitions, broadcast."""

from __future__ import annotations

import time

import pytest

from repro.errors import (
    NodeUnavailableError,
    PartitionedError,
    StalePlacementError,
    UnknownNodeError,
)
from repro.net import local as local_module
from repro.net import tcp as tcp_module
from repro.net import transport as transport_module
from repro.net.chaos import ChaosTransport, FaultPlan, FaultRule
from repro.net.local import DelayModel, LocalTransport
from repro.net.message import estimate_size
from repro.net.tcp import TcpTransport
from repro.net.transport import RpcHandler
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry


class Echo(RpcHandler):
    def __init__(self):
        self.calls = []

    def handle(self, op, *args, env=None, **kwargs):
        self.calls.append((op, args, kwargs))
        if op == "boom":
            raise RuntimeError("server error")
        return (op, args)


@pytest.fixture
def transport():
    t = LocalTransport()
    t.register("server", Echo())
    t.register("client")
    return t


class TestCall:
    def test_roundtrip(self, transport):
        assert transport.call("client", "server", "ping", 1, 2) == ("ping", (1, 2))

    def test_unknown_target(self, transport):
        with pytest.raises(UnknownNodeError):
            transport.call("client", "ghost", "ping")

    def test_target_without_handler(self, transport):
        transport.register("mute")
        with pytest.raises(UnknownNodeError):
            transport.call("client", "mute", "ping")

    def test_server_exception_propagates(self, transport):
        with pytest.raises(RuntimeError):
            transport.call("client", "server", "boom")

    def test_stats_recorded(self, transport):
        registry = transport.metrics = MetricsRegistry()
        transport.call("client", "server", "ping", b"xxxx")
        assert registry.sum_counter("rpc_messages_total", op="ping") == 2
        assert registry.sum_counter("rpc_bytes_sent_total", op="ping") == 4


class TestCrash:
    def test_call_to_crashed_raises(self, transport):
        transport.crash("server")
        with pytest.raises(NodeUnavailableError):
            transport.call("client", "server", "ping")

    def test_crashed_caller_raises(self, transport):
        transport.crash("client")
        with pytest.raises(NodeUnavailableError):
            transport.call("client", "server", "ping")

    def test_crash_unknown_node(self, transport):
        with pytest.raises(UnknownNodeError):
            transport.crash("ghost")

    def test_is_crashed(self, transport):
        assert not transport.is_crashed("server")
        transport.crash("server")
        assert transport.is_crashed("server")

    def test_crash_idempotent_single_notification(self, transport):
        seen = []
        transport.add_failure_listener(seen.append)
        transport.crash("server")
        transport.crash("server")
        assert seen == ["server"]

    def test_reregister_revives(self, transport):
        transport.crash("server")
        transport.register("server", Echo())
        assert transport.call("client", "server", "ping") == ("ping", ())


class TestPartition:
    def test_partition_blocks_both_directions(self, transport):
        transport.register("server2", Echo())
        transport.partition(["client"], ["server"])
        with pytest.raises(PartitionedError):
            transport.call("client", "server", "ping")
        # Other pairs unaffected.
        transport.call("client", "server2", "ping")

    def test_heal(self, transport):
        transport.partition(["client"], ["server"])
        transport.heal()
        transport.call("client", "server", "ping")


class TestBroadcast:
    def test_broadcast_delivers_to_all(self):
        t = LocalTransport()
        servers = {name: Echo() for name in ("a", "b", "c")}
        for name, server in servers.items():
            t.register(name, server)
        t.register("client")
        results = t.broadcast("client", ["a", "b", "c"], "ping", 7)
        assert set(results) == {"a", "b", "c"}
        for server in servers.values():
            assert server.calls == [("ping", (7,), {})]

    def test_broadcast_counts_payload_once(self):
        t = LocalTransport()
        for name in ("a", "b", "c"):
            t.register(name, Echo())
        t.register("client")
        registry = t.metrics = MetricsRegistry()
        t.broadcast("client", ["a", "b", "c"], "add", b"x" * 100)
        # One multicast frame on the wire plus 3 unicast acks (the
        # Fig. 1 AJX-bcast accounting: payload leaves the client once).
        assert registry.sum_counter("rpc_messages_total", op="add") == 1 + 3
        assert registry.sum_counter("rpc_bytes_sent_total", op="add") == 100

    def test_broadcast_partial_failure(self):
        t = LocalTransport()
        t.register("a", Echo())
        t.register("b", Echo())
        t.register("client")
        t.crash("b")
        results = t.broadcast("client", ["a", "b"], "ping")
        assert results["a"] == ("ping", ())
        assert isinstance(results["b"], NodeUnavailableError)

    @pytest.mark.parametrize("kind", ["local", "chaos", "chaos-delayed", "tcp"])
    def test_handler_error_is_a_per_destination_value(self, kind):
        """A leg whose handler raises (here a stale-placement reject)
        comes back as that exception; it never aborts the other legs."""

        class Stale(RpcHandler):
            def handle(self, op, *args, env=None, **kwargs):
                raise StalePlacementError("b", 0, 0, 1)

        inner = TcpTransport() if kind == "tcp" else LocalTransport()
        t = inner
        if kind.startswith("chaos"):
            rules = [FaultRule(dst="b", delay=0.001)] if kind == "chaos-delayed" else []
            t = ChaosTransport(inner, FaultPlan(rules))
        try:
            t.register("a", Echo())
            t.register("b", Stale())
            t.register("client")
            results = t.broadcast("client", ["a", "b"], "ping")
        finally:
            if isinstance(inner, TcpTransport):
                inner.close()
        assert results["a"] == ("ping", ())
        assert isinstance(results["b"], StalePlacementError)


class TestDelayModel:
    def test_zero_by_default(self):
        assert DelayModel().one_way(10_000) == 0.0

    def test_latency_plus_transmission(self):
        delay = DelayModel(latency=1e-3, bandwidth=1e6)
        assert delay.one_way(1000) == pytest.approx(1e-3 + 1e-3)

    def test_paper_lan_values(self):
        lan = DelayModel.paper_lan()
        assert lan.latency == pytest.approx(25e-6)
        assert lan.bandwidth == pytest.approx(62.5e6)

    def test_call_actually_sleeps(self):
        t = LocalTransport(delay=DelayModel(latency=0.01))
        t.register("server", Echo())
        t.register("client")
        start = time.perf_counter()
        t.call("client", "server", "ping")
        assert time.perf_counter() - start >= 0.02  # two one-way delays


class TestSizingOnlyWhenCounted:
    """No payload is sized on a path where nothing reads the size: an
    unobserved call or broadcast never runs ``estimate_size``, and an
    observed one counts the same bytes per op as it always has."""

    @pytest.fixture
    def sized(self, monkeypatch):
        calls = []

        def counting(obj):
            calls.append(obj)
            return estimate_size(obj)

        for module in (transport_module, local_module, tcp_module):
            monkeypatch.setattr(module, "estimate_size", counting, raising=False)
        return calls

    @staticmethod
    def exchange(kind, registry):
        """One RPC of ``kind``; returns per-op (sent, received) bytes."""
        t = TcpTransport() if kind == "tcp-call" else LocalTransport()
        t.metrics = registry
        try:
            for name in ("a", "b", "c"):
                t.register(name, Echo())
            t.register("client")
            if kind == "local-broadcast":
                t.broadcast("client", ["a", "b", "c"], "add", b"x" * 100)
                op = "add"
            else:
                t.call("client", "a", "ping", b"x" * 64, tag=7)
                op = "ping"
        finally:
            if isinstance(t, TcpTransport):
                t.close()
        return (
            registry.sum_counter("rpc_bytes_sent_total", op=op),
            registry.sum_counter("rpc_bytes_received_total", op=op),
        )

    @pytest.mark.parametrize("kind", ["local-call", "local-broadcast", "tcp-call"])
    def test_unobserved_rpc_sizes_nothing(self, sized, kind):
        self.exchange(kind, NULL_REGISTRY)
        assert sized == []

    @pytest.mark.parametrize(
        "kind, sent, received",
        [
            # b"x" * 64 plus kwarg "tag" (3) + int (8); reply ("ping", args)
            ("local-call", 75, 68),
            # one multicast frame; three ("add", args) replies of 103
            ("local-broadcast", 100, 309),
            ("tcp-call", 75, 68),
        ],
    )
    def test_observed_rpc_counts_bytes_per_op(self, sized, kind, sent, received):
        assert self.exchange(kind, MetricsRegistry()) == (sent, received)
        assert sized  # the counted path really goes through estimate_size
