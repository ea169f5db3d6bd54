"""Quorum behavior of the replicated directory over a real transport."""

from __future__ import annotations

import pytest

from repro.directory import (
    DirectoryCache,
    DirectoryReplica,
    ReplicatedDirectory,
    SlotBinding,
)
from repro.directory.local import UnknownSlotError
from repro.errors import DirectoryUnavailableError
from repro.net.local import LocalTransport


def provisioner(slot: int, incarnation: int) -> str:
    return f"storage-{slot}.{incarnation}"


def build(replicas: int = 3, client_id: str = "dir-client"):
    transport = LocalTransport()
    nodes = []
    for i in range(replicas):
        node = DirectoryReplica(f"dir-{i}")
        transport.register(node.replica_id, node)
        nodes.append(node)
    directory = ReplicatedDirectory(
        client_id,
        transport,
        [n.replica_id for n in nodes],
        provisioner,
    )
    return transport, nodes, directory


class TestBasics:
    def test_requires_three_replicas(self):
        transport = LocalTransport()
        with pytest.raises(ValueError):
            ReplicatedDirectory("c", transport, ["dir-0"], provisioner)

    def test_bind_then_lookup(self):
        _, _, directory = build()
        directory.bind(0, "storage-0")
        assert directory.node_id(0) == "storage-0"
        assert directory.incarnation(0) == 0
        assert not directory.is_pinned(0)

    def test_lookup_unbound_raises(self):
        _, _, directory = build()
        with pytest.raises(UnknownSlotError):
            directory.lookup(9)

    def test_slots_merges_snapshot(self):
        _, _, directory = build()
        for slot in (2, 0, 1):
            directory.bind(slot, f"storage-{slot}")
        assert directory.slots() == [0, 1, 2]

    def test_pin_blocks_remap(self):
        _, _, directory = build()
        directory.bind(0, "storage-0")
        directory.pin(0)
        assert directory.remap(0, "storage-0") == "storage-0"
        assert directory.incarnation(0) == 0
        directory.unpin(0)
        assert directory.remap(0, "storage-0") == "storage-0.1"
        assert directory.incarnation(0) == 1

    def test_remap_of_stale_node_is_noop(self):
        _, _, directory = build()
        directory.bind(0, "storage-0")
        directory.remap(0, "storage-0")
        # A second client reporting the *old* node must not double-bump.
        assert directory.remap(0, "storage-0") == "storage-0.1"
        assert directory.incarnation(0) == 1

    def test_generation_commit_is_monotonic_max(self):
        _, _, directory = build()
        directory.commit_generation(4, 2)
        directory.commit_generation(4, 1)
        assert directory.generation(4) == 2
        assert directory.generation(99) == 0

    def test_every_replica_learns_the_decision(self):
        _, nodes, directory = build()
        directory.bind(3, "storage-3")
        for node in nodes:
            committed = node.committed_state()[("slot", 3)]
            assert committed[1] == SlotBinding("storage-3", 0)


class TestMinorityFailure:
    def test_rmw_and_read_survive_one_crash(self):
        transport, _, directory = build()
        directory.bind(0, "storage-0")
        transport.crash("dir-0")
        assert directory.remap(0, "storage-0") == "storage-0.1"
        assert directory.incarnation(0) == 1

    def test_restarted_replica_converges_via_anti_entropy(self):
        transport, nodes, directory = build()
        directory.bind(0, "storage-0")
        transport.crash("dir-0")
        directory.remap(0, "storage-0")
        transport.register("dir-0", nodes[0])
        directory.anti_entropy()
        digests = {n.state_digest() for n in nodes}
        assert len(digests) == 1

    def test_read_repair_heals_a_lagging_replica(self):
        transport, nodes, directory = build()
        directory.bind(0, "storage-0")
        # Wipe one replica's commit record (simulates a missed apply).
        nodes[2]._committed.clear()
        assert directory.node_id(0) == "storage-0"
        assert nodes[2].committed_state()[("slot", 0)][1] == SlotBinding(
            "storage-0", 0
        )


class TestQuorumLoss:
    def build_degraded(self):
        transport, nodes, directory = build()
        directory.bind(0, "storage-0")
        transport.crash("dir-1")
        transport.crash("dir-2")
        return transport, nodes, directory

    def test_read_degrades_to_cache(self):
        _, _, directory = self.build_degraded()
        assert directory.node_id(0) == "storage-0"

    def test_uncached_key_raises(self):
        _, _, directory = self.build_degraded()
        with pytest.raises(DirectoryUnavailableError):
            directory.lookup(5)

    def test_remap_refused_returns_old_binding(self):
        _, nodes, directory = self.build_degraded()
        log_before = len(nodes[0].acceptance_log)
        assert directory.remap(0, "storage-0") == "storage-0"
        assert len(nodes[0].acceptance_log) == log_before
        assert nodes[0].committed_state()[("slot", 0)][1].incarnation == 0

    def test_bind_raises_without_quorum(self):
        _, _, directory = self.build_degraded()
        with pytest.raises(DirectoryUnavailableError):
            directory.bind(7, "storage-7")

    def test_recovers_after_heal(self):
        transport, nodes, directory = self.build_degraded()
        transport.register("dir-1", nodes[1])
        transport.register("dir-2", nodes[2])
        assert directory.remap(0, "storage-0") == "storage-0.1"


class TestAdoption:
    def test_chosen_but_unapplied_value_is_adopted(self):
        """A proposer that died between accept and apply left a *chosen*
        value; the next proposer's prepare quorum must adopt it, not
        overwrite it (the no-split-brain window)."""
        transport, nodes, directory = build()
        directory.bind(0, "storage-0")
        chosen = SlotBinding("storage-0.1", 1)
        # Simulate the dead proposer: majority accepted, nobody applied.
        for node in nodes:
            node.op_dir_prepare(("slot", 0), (50, "dead"))
            node.op_dir_accept(("slot", 0), (50, "dead"), chosen)
        # The live proposer tries to remap the *same* failure; it must
        # surface the chosen value and return it, never mint a second
        # incarnation-1 binding under a different node id.
        assert directory.remap(0, "storage-0") == "storage-0.1"
        assert directory.incarnation(0) == 1
        bindings = {
            b for node in nodes for b in node.accepted_bindings()
        }
        assert {(0, 1, n) for _, i, n in bindings if i == 1} == {
            (0, 1, "storage-0.1")
        }

    def test_racing_proposers_agree_on_one_winner(self):
        transport, nodes, a = build()
        b = ReplicatedDirectory(
            "dir-client-b", transport, [n.replica_id for n in nodes],
            provisioner,
        )
        a.bind(0, "storage-0")
        first = a.remap(0, "storage-0")
        second = b.remap(0, "storage-0")
        assert first == second == "storage-0.1"
        incarnations = [
            node.committed_state()[("slot", 0)][1].incarnation
            for node in nodes
        ]
        assert incarnations == [1, 1, 1]


class TestDirectoryCache:
    def test_hit_avoids_quorum(self):
        _, _, directory = build()
        directory.bind(0, "storage-0")
        cache = DirectoryCache(directory)
        assert cache.node_id(0) == "storage-0"
        fetches = cache.fetches
        cache.node_id(0)
        assert cache.fetches == fetches

    def test_remap_invalidates(self):
        _, _, directory = build()
        directory.bind(0, "storage-0")
        cache = DirectoryCache(directory)
        cache.node_id(0)
        assert cache.remap(0, "storage-0") == "storage-0.1"
        assert cache.node_id(0) == "storage-0.1"

    def test_cross_client_staleness_heals_through_remap(self):
        _, _, directory = build()
        directory.bind(0, "storage-0")
        stale = DirectoryCache(directory)
        stale.node_id(0)  # cached
        other = DirectoryCache(directory)
        other.remap(0, "storage-0")
        # The stale view still answers old; its remap call (triggered by
        # the old node failing) returns the current binding and refreshes.
        assert stale.node_id(0) == "storage-0"
        assert stale.remap(0, "storage-0") == "storage-0.1"
        assert stale.node_id(0) == "storage-0.1"


class TestOverloadIsNotFailure:
    def test_busy_sheds_leave_replica_health_untouched(self):
        """An admission shed from a directory replica is overload, not
        evidence of failure: it propagates as ``NodeBusyError`` and the
        replica's health score (the ``node_health_score`` gauge) does
        not move — the same rule ``ProtocolClient._observe`` applies
        to storage nodes."""
        from repro.core.cluster import Cluster
        from repro.errors import NodeBusyError

        cluster = Cluster(2, 4, directory_replicas=3, admission_limit=4)
        qdir, admission = cluster.qdirectory, cluster.transport.admission
        for _ in range(admission.limit):  # fill dir-0's queue
            admission.acquire("dir-0")
        for _ in range(3):
            with pytest.raises(NodeBusyError):
                qdir._call_replica("dir-0", "dir_read", ("slot", 0))
        assert cluster.health.score("dir-0") == 1.0
        # A genuine failure still degrades the score.
        cluster.crash_directory_replica(0)
        with pytest.raises(Exception):
            qdir._call_replica("dir-0", "dir_read", ("slot", 0))
        assert cluster.health.score("dir-0") < 1.0
