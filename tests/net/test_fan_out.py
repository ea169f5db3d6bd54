"""Transport.fan_out: where a round's legs run.

A leg that can only wait on this interpreter runs on the caller's
thread; a leg that a modeled delay or an injected fault can make sleep
runs on the pool, so the legs' sleeps overlap.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.cluster import Cluster
from repro.errors import NodeUnavailableError
from repro.net.chaos import ChaosTransport, FaultPlan
from repro.net.local import DelayModel, LocalTransport
from repro.net.tcp import TcpTransport
from repro.net.transport import RpcHandler


class Echo(RpcHandler):
    def handle(self, op, *args, env=None):
        return args[0]


def _local():
    return LocalTransport()


def _delayed():
    return LocalTransport(DelayModel(latency=1e-3))


def _chaos():
    return ChaosTransport(LocalTransport(), FaultPlan([]))


def _tcp():
    return TcpTransport()


@pytest.fixture
def build():
    made = []

    def make(factory):
        transport = factory()
        transport.register("server", Echo())
        transport.register("client")
        made.append(transport)
        return transport

    yield make
    for transport in made:
        if isinstance(transport, TcpTransport):
            transport.close()


@pytest.mark.parametrize("factory", [_local, _tcp], ids=["local", "tcp"])
def test_in_process_legs_run_on_the_callers_thread(build, factory):
    transport = build(factory)
    threads = []

    def body(x):
        threads.append(threading.get_ident())
        return transport.call("client", "server", "echo", x)

    out = transport.fan_out([3, 1, 2], body)
    assert out == {3: 3, 1: 1, 2: 2}
    assert threads == [threading.get_ident()] * 3


@pytest.mark.parametrize("factory", [_delayed, _chaos], ids=["delayed", "chaos"])
def test_legs_that_can_sleep_run_concurrently(build, factory):
    transport = build(factory)
    barrier = threading.Barrier(4, timeout=5)

    def body(x):
        barrier.wait()  # deadlocks unless all 4 run concurrently
        return transport.call("client", "server", "echo", x)

    start = time.perf_counter()
    out = transport.fan_out([1, 2, 3, 4], body)
    assert time.perf_counter() - start < 5
    assert out == {1: 1, 2: 2, 3: 3, 4: 4}


@pytest.mark.parametrize(
    "factory", [_local, _tcp, _delayed, _chaos],
    ids=["local", "tcp", "delayed", "chaos"],
)
def test_an_exception_is_its_legs_result(build, factory):
    transport = build(factory)
    ran = []

    def body(x):
        ran.append(x)
        if x == 1:
            raise ValueError("one")
        return transport.call("client", "server", "echo", x)

    out = transport.fan_out([0, 1, 2], body)
    assert sorted(ran) == [0, 1, 2]
    assert out[0] == 0 and out[2] == 2
    assert isinstance(out[1], ValueError)


def test_crashed_position_is_remapped_on_the_callers_thread():
    cluster = Cluster(2, 4, block_size=64, directory_replicas=3)
    client = cluster.protocol_client("c")
    for i in range(2):
        client.write(0, i, np.full(64, i + 1, dtype=np.uint8))
    failed = cluster.crash_storage(cluster.slot_of(0, 1))
    transport = cluster.transport
    fan_out = transport.fan_out
    starts = []

    def recording(items, body):
        starts.append(threading.get_ident())
        return fan_out(items, body)

    transport.fan_out = recording
    outcome = {}

    def round_():
        outcome["caller"] = threading.get_ident()
        outcome["results"] = client.fan_out_frames(
            "read", "read", client._every_position(0)
        )[1]
        outcome["starts"] = list(starts)

    worker = threading.Thread(target=round_, daemon=True)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive(), "frame round deadlocked"
    results = outcome["results"]
    assert isinstance(results[0, 1], NodeUnavailableError)
    assert all(not isinstance(results[0, j], Exception) for j in (0, 2, 3))
    assert client.node_of(0, 1) != failed
    # The round's own fan-out, then the remap's directory quorum rounds,
    # all started from the thread that sent the round.
    assert len(outcome["starts"]) >= 2
    assert set(outcome["starts"]) == {outcome["caller"]}
