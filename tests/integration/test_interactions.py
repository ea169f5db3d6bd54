"""Cross-component interactions: GC vs recovery, partitions mid-write,
directory races, mixed maintenance under faults."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.client.config import ClientConfig
from repro.core.cluster import Cluster
from repro.ids import BlockAddr, Tid


def fill(size, value):
    return np.full(size, value % 256, dtype=np.uint8)


class TestGcRecoveryInterplay:
    def test_gc_blocked_by_recovery_locks_then_succeeds(self):
        """GC must never mutate tid lists mid-recovery; its batches roll
        over and complete after finalize clears the lists anyway."""
        cluster = Cluster(k=2, n=4, block_size=64)
        vol = cluster.client("c")
        vol.write_block(0, b"x")
        # Recovery clears recentlists; then GC of stale tids is a no-op.
        assert vol.recover_stripe(0)
        assert vol.collect_garbage() >= 0
        assert vol.collect_garbage() >= 0
        assert cluster.stripe_consistent(0)
        state = cluster.node_for_slot(
            cluster.layout.node_of_stripe_index(0, 0)
        ).peek(BlockAddr("vol0", 0, 0))
        assert not state.recentlist and not state.oldlist

    def test_concurrent_gc_and_recovery_threads(self):
        cluster = Cluster(k=2, n=4, block_size=64)
        vol = cluster.client("c")
        for b in range(8):
            vol.write_block(b, bytes([b]))
        stop = threading.Event()
        errors = []

        def gc_loop():
            try:
                while not stop.is_set():
                    vol.collect_garbage()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        thread = threading.Thread(target=gc_loop)
        thread.start()
        for s in range(4):
            vol.recover_stripe(s)
        stop.set()
        thread.join()
        assert not errors
        for s in range(4):
            assert cluster.stripe_consistent(s)


class TestPartitionMidWrite:
    def test_client_partitioned_after_swap_write_eventually_resolves(self):
        """A writer partitioned between swap and adds behaves exactly
        like a crashed writer from the system's viewpoint: the monitor
        repairs the stripe and later writers are unaffected."""
        cluster = Cluster(k=2, n=4, block_size=64)
        vol = cluster.client("good")
        vol.write_block(0, b"base")
        wedged = cluster.protocol_client("wedged", ClientConfig(
            max_op_attempts=3, max_write_attempts=1, backoff=0.0001))
        swap = wedged.rpc("write", 0, 0, "swap", fill(64, 77), Tid(1, 0, "wedged"))
        assert swap.block is not None
        storage = [cluster.directory.node_id(s) for s in range(4)]
        cluster.transport.partition(["wedged"], storage)
        # The partitioned client's adds now fail; it gives up.
        from repro.errors import PartitionedError

        with pytest.raises(PartitionedError):
            wedged.rpc("write", 0, 2, "add", fill(64, 0), Tid(1, 0, "wedged"),
                       None, swap.epoch)
        vol.monitor.stale_after = 0.0
        vol.monitor_sweep([0])
        assert cluster.stripe_consistent(0)
        vol.write_block(0, b"after")
        assert vol.read_block(0)[:5] == b"after"

    def test_healed_client_writes_again(self):
        cluster = Cluster(k=2, n=4, block_size=64)
        vol = cluster.client("flappy")
        vol.write_block(0, b"one")
        storage = [cluster.directory.node_id(s) for s in range(4)]
        cluster.transport.partition(["flappy"], storage)
        cluster.transport.heal()
        vol.write_block(0, b"two")
        assert vol.read_block(0)[:3] == b"two"
        assert cluster.stripe_consistent(0)


class TestDirectoryRaces:
    def test_many_clients_remap_same_failure_once(self):
        cluster = Cluster(k=2, n=4, block_size=64)
        clients = [cluster.client(f"c{i}") for i in range(4)]
        clients[0].write_block(0, b"v")
        cluster.crash_storage(0)
        threads = [
            threading.Thread(target=lambda v=v: v.read_block(0)) for v in clients
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Exactly one replacement was provisioned despite 4 racers.
        assert cluster.directory.incarnation(0) == 1
        assert cluster.stripe_consistent(0)

    def test_remap_of_stale_node_id_is_noop(self):
        cluster = Cluster(k=2, n=4, block_size=64)
        vol = cluster.client("c")
        vol.write_block(0, b"v")
        cluster.crash_storage(0)
        vol.read_block(0)  # remap to incarnation 1
        current = cluster.directory.node_id(0)
        # A very late client still holding the original id remaps "again":
        result = cluster.directory.remap(0, "storage-0")
        assert result == current
        assert cluster.directory.incarnation(0) == 1


class TestMaintenanceStack:
    def test_scrub_rebuild_monitor_compose(self):
        """All three maintenance tools over the same damaged cluster."""
        from repro.client.rebuild import Rebuilder
        from repro.client.scrub import Scrubber

        cluster = Cluster(k=3, n=5, block_size=64)
        vol = cluster.client("c")
        for b in range(15):
            vol.write_block(b, bytes([b + 1]))
        cluster.crash_storage(2)
        rebuild = Rebuilder(cluster.protocol_client("rb")).rebuild(range(5))
        assert not rebuild.failed
        scrub = Scrubber(cluster.protocol_client("sc"), repair=False).scrub(range(5))
        assert scrub.clean == 5
        report = vol.monitor_sweep(range(5))
        assert report.recovered_stripes == []
        for b in range(15):
            assert vol.read_block(b)[:1] == bytes([b + 1])
