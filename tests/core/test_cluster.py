"""Cluster assembly, directory remap, invariants, instrumentation."""

from __future__ import annotations

import pytest

from repro.core.cluster import Cluster
from repro.directory import Directory, UnknownSlotError
from repro.ids import BlockAddr
from repro.obs import Observability


class TestAssembly:
    def test_nodes_registered(self, small_cluster):
        members = small_cluster.transport.members()
        assert {f"storage-{j}" for j in range(4)} <= members

    def test_directory_initial_bindings(self, small_cluster):
        for slot in range(4):
            assert small_cluster.directory.node_id(slot) == f"storage-{slot}"
            assert small_cluster.directory.incarnation(slot) == 0

    def test_rotation_flag_respected(self):
        flat = Cluster(k=2, n=4, rotate=False)
        assert flat.layout.stripe_nodes(0) == flat.layout.stripe_nodes(1)
        spun = Cluster(k=2, n=4, rotate=True)
        assert spun.layout.stripe_nodes(0) != spun.layout.stripe_nodes(1)


class TestRemap:
    def test_crash_and_remap_produces_fresh_node(self, small_cluster):
        vol = small_cluster.client("c")
        vol.write_block(0, b"v")
        old = small_cluster.crash_storage(0)
        assert small_cluster.transport.is_crashed(old)
        vol.read_block(0)  # triggers remap + recovery somewhere
        # Slot 0 now points at an incarnation-1 node.
        assert small_cluster.directory.incarnation(0) == 1
        assert small_cluster.directory.node_id(0) == "storage-0.1"

    def test_remap_idempotent_under_races(self):
        calls = []

        def provision(slot, incarnation):
            calls.append((slot, incarnation))
            return f"fresh-{slot}.{incarnation}"

        directory = Directory(provision)
        directory.bind(0, "orig")
        first = directory.remap(0, "orig")
        second = directory.remap(0, "orig")  # late duplicate detection
        assert first == second == "fresh-0.1"
        assert calls == [(0, 1)]

    def test_remap_unknown_slot(self):
        directory = Directory(lambda s, i: "x")
        with pytest.raises(UnknownSlotError):
            directory.remap(9, "whatever")
        with pytest.raises(UnknownSlotError):
            directory.node_id(9)

    def test_double_failure_remaps_twice(self, small_cluster):
        vol = small_cluster.client("c")
        vol.write_block(0, b"1")
        small_cluster.crash_storage(0)
        vol.read_block(0)
        small_cluster.crash_storage(0)  # the replacement dies too
        assert vol.read_block(0)[:1] == b"1"
        assert small_cluster.directory.incarnation(0) == 2


class TestIntrospection:
    def test_stripe_blocks_positional(self, cluster_3of5):
        vol = cluster_3of5.client("c")
        vol.write_block(0, b"\x07")
        blocks = cluster_3of5.stripe_blocks(0)
        assert len(blocks) == 5
        assert blocks[0][0] == 7

    def test_stripe_consistent_false_when_init(self, small_cluster):
        vol = small_cluster.client("c")
        vol.write_block(0, b"a")
        small_cluster.crash_storage(0)
        # Force the remap without recovery by touching the directory.
        small_cluster.directory.remap(0, "storage-0")
        assert not small_cluster.stripe_consistent(0)

    def test_metadata_and_block_counts(self, small_cluster):
        vol = small_cluster.client("c")
        assert small_cluster.block_count() == 0
        vol.write_block(0, b"x")
        assert small_cluster.block_count() == 3  # data + 2 redundant slots
        assert small_cluster.metadata_bytes() > 0

    def test_instrumented_cluster_records_service_times(self):
        obs = Observability.create()
        cluster = Cluster(k=2, n=4, block_size=64, observability=obs)
        vol = cluster.client("c")
        vol.write_block(0, b"t")
        vol.read_block(0)
        ops = obs.registry.sum_counter
        assert ops("node_ops_total", op="swap") == 1
        assert ops("node_ops_total", op="add") == 2
        assert ops("node_ops_total", op="read") == 1


class TestFailureFanout:
    def test_client_crash_expires_locks_everywhere(self, small_cluster):
        from repro.storage.state import LockMode

        holder = small_cluster.protocol_client("holder")
        for j in range(4):
            holder.rpc("recovery_phase1", 0, j, "trylock", LockMode.L1,
                       "holder")
        small_cluster.crash_client("holder")
        for j in range(4):
            slot = small_cluster.layout.node_of_stripe_index(0, j)
            node = small_cluster.node_for_slot(slot)
            assert node.peek(BlockAddr("vol0", 0, j)).lmode is LockMode.EXP
