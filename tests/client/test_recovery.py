"""Failure injection: storage crashes, client crashes, recovery races.

These tests exercise the recovery algorithm of Fig. 6 end to end on the
functional cluster, covering every failure class the paper discusses.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.client.config import ClientConfig, WriteStrategy
from repro.core.cluster import Cluster
from repro.errors import DataLossError
from repro.ids import BlockAddr, Tid
from repro.storage.state import LockMode, OpMode


def fill(size, value):
    return np.full(size, value % 256, dtype=np.uint8)


def write_all(client, cluster, stripes):
    for s in range(stripes):
        for i in range(cluster.code.k):
            client.write(s, i, fill(cluster.meta.block_size, s * 10 + i + 1))


class TestStorageCrash:
    def test_read_of_crashed_data_node_recovers(self, cluster_3of5):
        client = cluster_3of5.protocol_client("c")
        write_all(client, cluster_3of5, 2)
        slot = cluster_3of5.layout.node_of_stripe_index(0, 0)
        cluster_3of5.crash_storage(slot)
        assert client.read(0, 0)[0] == 1  # reconstructed through the code
        assert cluster_3of5.stripe_consistent(0)
        assert client.stats.recoveries_completed >= 1
        assert client.stats.remaps >= 1

    def test_write_to_crashed_data_node_recovers(self, cluster_3of5):
        client = cluster_3of5.protocol_client("c")
        write_all(client, cluster_3of5, 1)
        slot = cluster_3of5.layout.node_of_stripe_index(0, 1)
        cluster_3of5.crash_storage(slot)
        client.write(0, 1, fill(cluster_3of5.meta.block_size, 99))
        assert client.read(0, 1)[0] == 99
        assert cluster_3of5.stripe_consistent(0)

    def test_crashed_redundant_node_recovered_on_write(self, cluster_3of5):
        client = cluster_3of5.protocol_client("c")
        write_all(client, cluster_3of5, 1)
        slot = cluster_3of5.layout.node_of_stripe_index(0, 4)  # redundant
        cluster_3of5.crash_storage(slot)
        client.write(0, 0, fill(cluster_3of5.meta.block_size, 55))
        assert cluster_3of5.stripe_consistent(0)
        assert client.read(0, 0)[0] == 55

    def test_two_crashes_tolerated_by_3of5(self, cluster_3of5):
        client = cluster_3of5.protocol_client("c")
        write_all(client, cluster_3of5, 1)
        cluster_3of5.crash_storage(cluster_3of5.layout.node_of_stripe_index(0, 0))
        assert client.read(0, 0)[0] == 1  # first recovery
        cluster_3of5.crash_storage(cluster_3of5.layout.node_of_stripe_index(0, 1))
        assert client.read(0, 1)[0] == 2  # second recovery
        assert cluster_3of5.stripe_consistent(0)

    def test_simultaneous_two_crashes_tolerated(self, cluster_3of5):
        client = cluster_3of5.protocol_client("c")
        write_all(client, cluster_3of5, 1)
        cluster_3of5.crash_storage(cluster_3of5.layout.node_of_stripe_index(0, 0))
        cluster_3of5.crash_storage(cluster_3of5.layout.node_of_stripe_index(0, 3))
        assert client.read(0, 0)[0] == 1
        assert cluster_3of5.stripe_consistent(0)

    def test_three_simultaneous_crashes_lose_data(self, cluster_3of5):
        client = cluster_3of5.protocol_client(
            "c", ClientConfig(recovery_wait_limit=3, max_op_attempts=30)
        )
        write_all(client, cluster_3of5, 1)
        for j in (0, 1, 3):
            cluster_3of5.crash_storage(
                cluster_3of5.layout.node_of_stripe_index(0, j)
            )
        with pytest.raises(DataLossError):
            client.read(0, 0)

    def test_other_stripes_unaffected_by_recovery(self, cluster_3of5):
        client = cluster_3of5.protocol_client("c")
        write_all(client, cluster_3of5, 3)
        cluster_3of5.crash_storage(cluster_3of5.layout.node_of_stripe_index(0, 0))
        assert client.read(0, 0)[0] == 1
        for s in (1, 2):
            for i in range(3):
                assert client.read(s, i)[0] == (s * 10 + i + 1) % 256

    def test_epoch_bumped_after_recovery(self, cluster_3of5):
        client = cluster_3of5.protocol_client("c")
        write_all(client, cluster_3of5, 1)
        cluster_3of5.crash_storage(cluster_3of5.layout.node_of_stripe_index(0, 0))
        client.read(0, 0)
        node = cluster_3of5.node_for_slot(
            cluster_3of5.layout.node_of_stripe_index(0, 1)
        )
        state = node.peek(BlockAddr("vol0", 0, 1))
        assert state.epoch >= 1


class TestClientCrashMidWrite:
    def _partial_swap(self, cluster, client_id="bad", value=77):
        """Swap lands at the data node, adds never issued, client dies."""
        bad = cluster.protocol_client(client_id)
        result = bad.protocol_client_swap = bad.rpc(
            "write", 0, 0, "swap", fill(cluster.meta.block_size, value),
            Tid(1, 0, client_id),
        )
        assert result.block is not None
        cluster.crash_client(client_id)
        return result

    def test_partial_write_rolled_back_by_recovery(self, small_cluster):
        good = small_cluster.protocol_client("good")
        good.write(0, 0, fill(64, 5))
        self._partial_swap(small_cluster)
        assert not small_cluster.stripe_consistent(0)
        assert good.recover(0)
        assert small_cluster.stripe_consistent(0)
        assert good.read(0, 0)[0] == 5  # rolled back to last complete write

    def test_partial_adds_completed_by_recovery(self, small_cluster):
        """Swap + one of two adds landed: recovery must converge the
        stripe (either completing or rolling back consistently)."""
        bad = small_cluster.protocol_client("bad")
        good = small_cluster.protocol_client("good")
        good.write(0, 0, fill(64, 5))
        ntid = Tid(1, 0, "bad")
        swap = bad.rpc("write", 0, 0, "swap", fill(64, 8), ntid)
        diff = np.bitwise_xor(fill(64, 8), swap.block)
        code = small_cluster.code
        from repro.gf import field as gf

        bad.rpc(
            "write", 0, 2, "add",
            gf.mul_block(code.coefficient(2, 0), diff), ntid, swap.otid, swap.epoch,
        )
        small_cluster.crash_client("bad")
        assert good.recover(0)
        assert small_cluster.stripe_consistent(0)
        # The write reached a majority-compatible set {0,1,2}; recovery
        # completes it, so the new value should win.
        assert good.read(0, 0)[0] == 8

    def test_writer_blocked_by_crashed_predecessor_recovers(self, small_cluster):
        """ORDER retries against a crashed writer's tid eventually drive
        the second writer into recovery, after which its write lands."""
        good = small_cluster.protocol_client(
            "good", ClientConfig(order_retry_limit=2, backoff=0.0005)
        )
        good.write(0, 0, fill(64, 1))
        self._partial_swap(small_cluster, value=66)
        # The crashed writer's swap is in front of us in the otid chain.
        good.write(0, 0, fill(64, 2))
        assert small_cluster.stripe_consistent(0)
        assert good.read(0, 0)[0] == 2
        assert good.stats.recoveries_started >= 0  # may resolve via epoch

    def test_expired_lock_detected_and_recovery_taken_over(self, small_cluster):
        """A client that crashes holding recovery locks leaves lmode EXP;
        the next accessor re-runs recovery."""
        good = small_cluster.protocol_client("good")
        good.write(0, 0, fill(64, 3))
        holder = small_cluster.protocol_client("holder")
        for j in range(4):
            holder.rpc("recovery_phase1", 0, j, "trylock", LockMode.L1,
                       "holder")
        small_cluster.crash_client("holder")
        node = small_cluster.node_for_slot(small_cluster.layout.node_of_stripe_index(0, 0))
        assert node.peek(BlockAddr("vol0", 0, 0)).lmode is LockMode.EXP
        assert good.read(0, 0)[0] == 3
        assert small_cluster.stripe_consistent(0)
        assert good.stats.recoveries_completed >= 1


class TestRecoveryPickup:
    def test_crashed_recovery_picked_up_via_recons_set(self, small_cluster):
        """Fig. 6: a client that crashed in phase 3 leaves opmode=RECONS
        and recons_set; the next recoverer finishes its job."""
        good = small_cluster.protocol_client("good")
        good.write(0, 0, fill(64, 9))
        crasher = small_cluster.protocol_client("crasher")
        # Manually run phases 1-2 plus a partial phase 3 write-back.
        for j in range(4):
            crasher.rpc("recovery_phase1", 0, j, "trylock", LockMode.L1,
                        "crasher")
        states = {j: crasher.rpc("recovery_phase2", 0, j, "get_state")
                  for j in range(4)}
        cset = frozenset(range(4))
        blocks = small_cluster.code.reconstruct_stripe(
            {j: states[j].block for j in cset}
        )
        crasher.rpc("recovery_phase3", 0, 0, "reconstruct", cset, blocks[0])
        small_cluster.crash_client("crasher")
        # good stumbles on the expired locks and picks up the recovery.
        assert good.read(0, 0)[0] == 9
        assert small_cluster.stripe_consistent(0)

    def test_concurrent_recoveries_one_wins(self, small_cluster):
        clients = [small_cluster.protocol_client(f"c{i}") for i in range(3)]
        clients[0].write(0, 0, fill(64, 4))
        slot = small_cluster.layout.node_of_stripe_index(0, 0)
        small_cluster.crash_storage(slot)
        results = []

        def recover_loop(client):
            results.append(client.read(0, 0)[0])

        threads = [threading.Thread(target=recover_loop, args=(c,)) for c in clients]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == [4, 4, 4]
        assert small_cluster.stripe_consistent(0)


class TestWritesDuringRecovery:
    def test_write_waits_for_recovery_then_succeeds(self, cluster_3of5):
        client = cluster_3of5.protocol_client("c")
        write_all(client, cluster_3of5, 1)
        other = cluster_3of5.protocol_client("other")
        cluster_3of5.crash_storage(cluster_3of5.layout.node_of_stripe_index(0, 2))
        errors = []

        def writer():
            try:
                other.write(0, 0, fill(cluster_3of5.meta.block_size, 200))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def reader():
            client.read(0, 2)  # triggers recovery

        threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert cluster_3of5.stripe_consistent(0)
        assert client.read(0, 0)[0] == 200

    def test_late_add_rejected_by_epoch(self, small_cluster):
        """An add from before a recovery must not corrupt the stripe."""
        client = small_cluster.protocol_client("c")
        client.write(0, 0, fill(64, 1))
        ntid = Tid(99, 0, "слow")
        swap = client.rpc("write", 0, 0, "swap", fill(64, 7), ntid)
        old_epoch = swap.epoch
        # Recovery happens (rolls back the half-done write, bumps epoch).
        assert client.recover(0)
        from repro.storage.state import AddStatus

        code = small_cluster.code
        result = client.rpc(
            "write", 0, 2, "add",
            np.asarray(code.delta(2, 0, fill(64, 7), swap.block)), ntid,
            swap.otid, old_epoch,
        )
        assert result.status is AddStatus.ERROR  # e < epoch
        assert small_cluster.stripe_consistent(0)
