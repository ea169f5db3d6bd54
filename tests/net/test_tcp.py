"""The TCP transport: the same protocol over real loopback sockets."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.cluster import Cluster
from repro.errors import NodeUnavailableError, RpcTimeoutError, UnknownNodeError
from repro.net.message import Envelope
from repro.net.tcp import TcpTransport
from repro.net.transport import RpcHandler
from repro.obs.metrics import MetricsRegistry


class Echo(RpcHandler):
    def handle(self, op, *args, env=None):
        if op == "boom":
            raise ValueError("server-side failure")
        if op == "stall":
            time.sleep(args[0])
        return (op, args)


@pytest.fixture
def tcp():
    transport = TcpTransport()
    yield transport
    transport.close()


class TestTcpRpc:
    def test_roundtrip(self, tcp):
        tcp.register("server", Echo())
        tcp.register("client")
        assert tcp.call("client", "server", "ping", 1, 2) == ("ping", (1, 2))

    def test_numpy_payload(self, tcp):
        tcp.register("server", Echo())
        tcp.register("client")
        block = np.arange(1024, dtype=np.uint8)
        _, args = tcp.call("client", "server", "store", block)
        assert np.array_equal(args[0], block)

    def test_server_exception_reraised(self, tcp):
        tcp.register("server", Echo())
        tcp.register("client")
        with pytest.raises(ValueError, match="server-side failure"):
            tcp.call("client", "server", "boom")

    def test_unknown_target(self, tcp):
        tcp.register("client")
        with pytest.raises(UnknownNodeError):
            tcp.call("client", "ghost", "ping")

    def test_crash_is_detectable(self, tcp):
        tcp.register("server", Echo())
        tcp.register("client")
        tcp.call("client", "server", "ping")
        tcp.crash("server")
        with pytest.raises(NodeUnavailableError):
            tcp.call("client", "server", "ping")

    def test_concurrent_callers(self, tcp):
        tcp.register("server", Echo())
        results = []
        lock = threading.Lock()

        def caller(name):
            tcp.register(name)
            for i in range(20):
                out = tcp.call(name, "server", "ping", name, i)
                with lock:
                    results.append(out)

        threads = [
            threading.Thread(target=caller, args=(f"c{i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 80

    def test_stats_recorded(self, tcp):
        tcp.register("server", Echo())
        tcp.register("client")
        registry = tcp.metrics = MetricsRegistry()
        tcp.call("client", "server", "ping", b"x" * 64)
        assert registry.sum_counter("rpc_messages_total", op="ping") == 2
        assert registry.sum_counter("rpc_bytes_sent_total", op="ping") == 64

    def test_refused_connect_is_unavailable(self, tcp):
        """A node whose listener is gone fails the dial fast with
        NodeUnavailableError instead of waiting out the connect timeout."""
        tcp.register("server", Echo())
        tcp.register("client")
        tcp._servers["server"].close()
        start = time.perf_counter()
        with pytest.raises(NodeUnavailableError):
            tcp.call("client", "server", "ping")
        assert time.perf_counter() - start < 2.0

    def test_call_deadline_raises_timeout(self, tcp):
        """A gray (slow but alive) server no longer hangs the caller:
        the socket deadline surfaces as RpcTimeoutError."""
        tcp.register("server", Echo())
        tcp.register("client")
        start = time.perf_counter()
        with pytest.raises(RpcTimeoutError):
            tcp.call("client", "server", "stall", 5.0, env=Envelope(timeout=0.1))
        assert time.perf_counter() - start < 2.0
        # The connection was torn down; a fresh call still works.
        assert tcp.call("client", "server", "ping") == ("ping", ())

    def test_call_within_deadline_succeeds(self, tcp):
        tcp.register("server", Echo())
        tcp.register("client")
        result = tcp.call(
            "client", "server", "stall", 0.01, env=Envelope(timeout=5.0)
        )
        assert result == ("stall", (0.01,))

    def test_broadcast_falls_back_to_unicast_loop(self, tcp):
        """TCP has no multicast; the base-class loop must still deliver
        everywhere and capture per-destination failures."""
        from repro.errors import NodeUnavailableError

        tcp.register("a", Echo())
        tcp.register("b", Echo())
        tcp.register("client")
        tcp.crash("b")
        results = tcp.broadcast("client", ["a", "b"], "ping", 1)
        assert results["a"] == ("ping", (1,))
        assert isinstance(results["b"], NodeUnavailableError)


class TestClusterOverTcp:
    """The full protocol stack over real sockets (§5.1 fidelity)."""

    @pytest.fixture
    def cluster(self):
        transport = TcpTransport()
        cluster = Cluster(k=2, n=4, block_size=128, transport=transport)
        yield cluster
        transport.close()

    def test_write_read_roundtrip(self, cluster):
        vol = cluster.client("app")
        vol.write_block(0, b"over actual TCP")
        assert vol.read_block(0)[:15] == b"over actual TCP"
        assert cluster.stripe_consistent(0)

    def test_crash_recovery_over_tcp(self, cluster):
        vol = cluster.client("app")
        for b in range(6):
            vol.write_block(b, bytes([b + 1]))
        cluster.crash_storage(cluster.layout.locate(0).node)
        assert vol.read_block(0)[:1] == b"\x01"
        assert cluster.stripe_consistent(0)
        assert vol.protocol.stats.recoveries_completed >= 1

    def test_concurrent_writers_over_tcp(self, cluster):
        a = cluster.client("a")
        b = cluster.client("b")

        def writer(vol, block, tag):
            for i in range(15):
                vol.write_block(block, bytes([tag + i]))

        threads = [
            threading.Thread(target=writer, args=(a, 0, 10)),
            threading.Thread(target=writer, args=(b, 1, 100)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert cluster.stripe_consistent(0)
        assert a.read_block(0)[0] == 24
        assert b.read_block(1)[0] == 114

    def test_gc_and_monitor_over_tcp(self, cluster):
        vol = cluster.client("app")
        vol.write_block(0, b"x")
        vol.collect_garbage()
        vol.collect_garbage()
        report = vol.monitor_sweep([0])
        assert report.recovered_stripes == []
        assert cluster.metadata_bytes() / cluster.block_count() <= 10


class Liar(RpcHandler):
    """Raises CorruptionDetected so transports must carry it intact."""

    def handle(self, op, *args, env=None):
        from repro.errors import CorruptionDetected

        raise CorruptionDetected("server", 4, 1, "media", detail="audit")


class TestIntegrityErrorsOverTheWire:
    def test_corruption_detected_over_tcp(self, tcp):
        """The exception crosses the wire codec with every field intact
        (it is rebuilt from its args and attributes, never by its
        positional __init__)."""
        from repro.errors import CorruptionDetected

        tcp.register("server", Liar())
        tcp.register("client")
        with pytest.raises(CorruptionDetected) as info:
            tcp.call("client", "server", "fingerprint")
        exc = info.value
        assert (exc.node_id, exc.stripe, exc.index) == ("server", 4, 1)
        assert exc.source == "media"
        assert exc.detail == "audit"

    def test_corruption_detected_over_local(self):
        from repro.errors import CorruptionDetected
        from repro.net.local import LocalTransport

        local = LocalTransport()
        local.register("server", Liar())
        local.register("client")
        with pytest.raises(CorruptionDetected) as info:
            local.call("client", "server", "fingerprint")
        assert info.value.source == "media"
