"""The call envelope: one unsized header every layer reads, none strips."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.client.config import ClientConfig, WriteStrategy
from repro.core.cluster import Cluster
from repro.erasure.rs import ReedSolomonCode
from repro.erasure.striping import StripeLayout
from repro.errors import RpcTimeoutError
from repro.ids import BlockAddr
from repro.net.chaos import ChaosTransport, FaultPlan, FaultRule
from repro.net.local import DelayModel, LocalTransport
from repro.net.message import Envelope
from repro.net.tcp import TcpTransport
from repro.net.transport import RpcHandler
from repro.obs import Observability
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER
from repro.storage.node import StorageNode, VolumeMeta

DEADLINE = 0.05
ENV = Envelope(kind="write", trace=("t:w1", "t:s1", "t:w1"), gen=3,
               timeout=DEADLINE)


class Recorder(RpcHandler):
    """Echoes what it was handed; ``stall`` sleeps like a gray node."""

    def __init__(self):
        self.seen = []

    def handle(self, op, *args, env=None, **kwargs):
        self.seen.append((op, args, kwargs, env))
        if op == "stall":
            time.sleep(args[0])
        return op


def local(delay=0.0):
    transport = LocalTransport(delay=DelayModel(latency=delay))
    return transport, transport


def chaos(rules):
    inner = LocalTransport()
    return ChaosTransport(inner, FaultPlan(rules, blackhole=30.0)), inner


def wire(transport, inner=None):
    servers = {name: Recorder() for name in ("a", "b")}
    for name, server in servers.items():
        (inner or transport).register(name, server)
    transport.register("client")
    return servers


class TestHeaderIsNotPayload:
    def test_wire_bytes_do_not_depend_on_tracing(self):
        def write_bytes(obs):
            cluster = Cluster(3, 5, block_size=64, observability=obs)
            vol = cluster.client("w")
            for i in range(4):
                vol.write_block(i, bytes([i + 1]) * 64)
            return obs.registry.sum_counter("rpc_bytes_sent_total", kind="write")

        traced = write_bytes(Observability.create())
        untraced = write_bytes(
            Observability(MetricsRegistry(), NULL_TRACER, None)
        )
        assert traced == untraced > 0

    @pytest.mark.parametrize("kind", ["local", "tcp", "chaos"])
    def test_handler_gets_envelope_never_header_kwargs(self, kind):
        tcp = None
        if kind == "local":
            transport, inner = local()
        elif kind == "tcp":
            transport = inner = tcp = TcpTransport()
        else:
            transport, inner = chaos([FaultRule(dst="a", dup=1.0)])
        try:
            servers = wire(transport, inner)
            transport.call("client", "a", "ping", 1, env=ENV, extra=2)
            transport.broadcast("client", ["b"], "ping", 1, env=ENV)
        finally:
            if tcp is not None:
                tcp.close()
        for server in servers.values():
            assert server.seen
            for op, args, kwargs, env in server.seen:
                assert kwargs in ({}, {"extra": 2})
                assert env == ENV

    def test_handler_called_directly_without_envelope(self):
        meta = VolumeMeta(ReedSolomonCode(2, 4), StripeLayout(2, 4), 16)
        node = StorageNode("s0", 0, {"vol": meta})
        result = node.handle("read", BlockAddr("vol", 0, 0))
        assert not result.block.any()


class TestEnvelopeDeadline:
    """``env.timeout`` bounds every call and every broadcast."""

    def rig(self, kind):
        if kind == "local":
            transport, inner = local(delay=5.0)
            return transport, inner, "ping", ()
        if kind == "tcp":
            transport = TcpTransport()
            return transport, transport, "stall", (1.0,)
        transport, inner = chaos([FaultRule(dst="a", drop=1.0),
                                  FaultRule(dst="b", stall=5.0)])
        return transport, inner, "ping", ()

    @pytest.mark.parametrize("kind", ["local", "tcp", "chaos"])
    def test_call_and_broadcast_honour_deadline(self, kind):
        transport, inner, op, args = self.rig(kind)
        try:
            wire(transport, inner)
            start = time.perf_counter()
            with pytest.raises(RpcTimeoutError):
                transport.call("client", "a", op, *args, env=ENV)
            results = transport.broadcast(
                "client", ["a", "b"], op, *args, env=ENV
            )
            elapsed = time.perf_counter() - start
        finally:
            if isinstance(transport, TcpTransport):
                transport.close()
        assert all(isinstance(r, RpcTimeoutError) for r in results.values())
        assert set(results) == {"a", "b"}
        assert elapsed < 0.9

    def test_bcast_write_bounded_by_rpc_timeout(self):
        """A dropped AJX-bcast add costs the client its rpc_timeout, not
        the plan's blackhole."""
        plan = FaultPlan([FaultRule(dst="storage-4", op="add", drop=1.0)],
                         seed=1, blackhole=3.0)
        cluster = Cluster(3, 5, block_size=64, chaos_plan=plan)
        client = cluster.protocol_client(
            "w", ClientConfig(strategy=WriteStrategy.BROADCAST, rpc_timeout=0.05)
        )
        start = time.perf_counter()
        try:
            client.write(0, 0, np.full(64, 7, dtype=np.uint8))
        except Exception:
            pass  # aborting is fine; hanging is not
        assert time.perf_counter() - start < 1.5
