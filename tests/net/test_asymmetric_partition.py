"""Asymmetric partitions and targeted heals at the transport layer."""

from __future__ import annotations

import pytest

from repro.errors import PartitionedError
from repro.net.chaos import ChaosTransport, FaultPlan
from repro.net.local import LocalTransport
from repro.net.transport import RpcHandler


class Echo(RpcHandler):
    def handle(self, op, *args, env=None):
        return (op, args)


def make_transport() -> LocalTransport:
    transport = LocalTransport()
    for node in ("c1", "c2", "s0", "s1", "s2"):
        transport.register(node, Echo())
    return transport


class TestAsymmetricPartition:
    def test_partial_connectivity(self):
        """c1 loses s0 only: the rest of the mesh keeps working — the
        gray middle ground between 'connected' and 'islanded'."""
        transport = make_transport()
        transport.partition(["c1"], ["s0"])
        with pytest.raises(PartitionedError):
            transport.call("c1", "s0", "ping")
        transport.call("c1", "s1", "ping")
        transport.call("c1", "s2", "ping")
        transport.call("c2", "s0", "ping")

    def test_targeted_heal_removes_only_named_pairs(self):
        transport = make_transport()
        transport.partition(["c1"], ["s0"])
        transport.partition(["c2"], ["s0", "s1"])
        transport.heal(["c1"], ["s0"])
        transport.call("c1", "s0", "ping")
        with pytest.raises(PartitionedError):
            transport.call("c2", "s0", "ping")
        with pytest.raises(PartitionedError):
            transport.call("c2", "s1", "ping")

    def test_targeted_heal_is_bidirectional(self):
        transport = make_transport()
        transport.partition(["c1"], ["s0"])
        transport.heal(["s0"], ["c1"])  # sides in either order
        transport.call("c1", "s0", "ping")

    def test_heal_requires_both_sides_or_neither(self):
        transport = make_transport()
        transport.partition(["c1"], ["s0"])
        with pytest.raises(ValueError):
            transport.heal(["c1"])
        transport.heal()  # no sides: clear everything
        transport.call("c1", "s0", "ping")

    def test_targeted_heal_of_unpartitioned_pair_is_noop(self):
        transport = make_transport()
        transport.partition(["c1"], ["s0"])
        transport.heal(["c2"], ["s1"])
        with pytest.raises(PartitionedError):
            transport.call("c1", "s0", "ping")

    def test_chaos_wrapper_delegates_partition_and_heal(self):
        inner = make_transport()
        transport = ChaosTransport(inner, FaultPlan([], seed=0))
        transport.partition(["c1"], ["s0"])
        with pytest.raises(PartitionedError):
            transport.call("c1", "s0", "ping")
        transport.heal(["c1"], ["s0"])
        transport.call("c1", "s0", "ping")
