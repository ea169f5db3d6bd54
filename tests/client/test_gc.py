"""Two-phase garbage collection (Fig. 7, §3.9)."""

from __future__ import annotations

import numpy as np

from repro.core.cluster import Cluster
from repro.ids import BlockAddr
from repro.storage.state import LockMode


def fill(size, value):
    return np.full(size, value % 256, dtype=np.uint8)


def data_node_state(cluster, stripe, index):
    slot = cluster.layout.node_of_stripe_index(stripe, index)
    return cluster.node_for_slot(slot).peek(BlockAddr("vol0", stripe, index))


class TestGcRounds:
    def test_two_rounds_move_then_discard(self, small_cluster):
        vol = small_cluster.client("c")
        vol.write_block(0, b"x")
        state = data_node_state(small_cluster, 0, 0)
        assert len(state.recentlist) == 1 and not state.oldlist
        vol.collect_garbage()  # round 1: recent -> old
        state = data_node_state(small_cluster, 0, 0)
        assert not state.recentlist and len(state.oldlist) == 1
        vol.collect_garbage()  # round 2: old discarded
        state = data_node_state(small_cluster, 0, 0)
        assert not state.recentlist and not state.oldlist

    def test_gc_covers_redundant_nodes(self, small_cluster):
        vol = small_cluster.client("c")
        vol.write_block(0, b"x")
        vol.collect_garbage()
        vol.collect_garbage()
        for j in range(2, 4):
            state = data_node_state(small_cluster, 0, j)
            assert not state.recentlist and not state.oldlist

    def test_metadata_returns_to_quiescent(self, small_cluster):
        vol = small_cluster.client("c")
        for b in range(8):
            vol.write_block(b, bytes([b]))
        grown = small_cluster.metadata_bytes()
        vol.collect_garbage()
        vol.collect_garbage()
        quiescent = small_cluster.metadata_bytes()
        assert quiescent < grown
        assert quiescent / small_cluster.block_count() <= 10  # §6.5

    def test_pending_counter_drains(self, small_cluster):
        vol = small_cluster.client("c")
        for b in range(4):
            vol.write_block(b, b"d")
        assert vol.gc.pending_tids() > 0
        vol.collect_garbage()
        vol.collect_garbage()
        assert vol.gc.pending_tids() == 0

    def test_gc_on_idle_volume_is_noop(self, small_cluster):
        vol = small_cluster.client("c")
        assert vol.collect_garbage() == 0


class TestGcSafety:
    def test_gc_skips_locked_stripe_and_retries(self, small_cluster):
        vol = small_cluster.client("c")
        vol.write_block(0, b"x")
        # Lock the stripe (as a recovery would).
        locker = small_cluster.protocol_client("locker")
        for j in range(4):
            locker.rpc("recovery_phase1", 0, j, "trylock", LockMode.L1,
                       "locker")
        transport = small_cluster.transport
        original = transport.call
        sent = []

        def spy(src, dst, op, *args, **kwargs):
            if op == "gc_recent":
                sent.append(dst)
            return original(src, dst, op, *args, **kwargs)

        transport.call = spy
        vol.collect_garbage()  # cannot make progress, must not wedge
        transport.call = original
        # One gc_recent frame per node that holds a batch (the data node
        # and both redundant nodes), each refused; the refusal rolls
        # over, it is not re-sent.
        assert len(sent) == len(set(sent)) == 3
        state = data_node_state(small_cluster, 0, 0)
        assert len(state.recentlist) == 1  # untouched
        # Unlock and retry: the batch was carried over.
        for j in range(4):
            locker.rpc("recovery_abort", 0, j, "setlock", LockMode.UNL,
                       "locker")
        vol.collect_garbage()
        state = data_node_state(small_cluster, 0, 0)
        assert not state.recentlist and len(state.oldlist) == 1

    def test_ordering_survives_gc(self, small_cluster):
        """§3.9: after otid is GC'd, a waiting writer learns the previous
        write completed (checktid GC) and proceeds without ordering."""
        vol = small_cluster.client("c")
        vol.write_block(0, b"1")
        vol.collect_garbage()
        vol.collect_garbage()
        vol.write_block(0, b"2")  # otid now refers to a GC'd tid
        assert vol.read_block(0)[:1] == b"2"
        assert small_cluster.stripe_consistent(0)

    def test_gc_after_recovery_handles_vanished_tids(self, small_cluster):
        """Recovery clears recentlists; GC of tids recorded before the
        recovery must be a harmless no-op."""
        vol = small_cluster.client("c")
        vol.write_block(0, b"x")
        assert vol.recover_stripe(0)
        vol.collect_garbage()
        vol.collect_garbage()
        assert small_cluster.stripe_consistent(0)
