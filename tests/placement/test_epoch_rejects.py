"""Satellite of the reconfiguration work: a migration's epoch bump must
reject delayed deltas from the pre-migration placement generation with
the *ordinary* stale-epoch machinery (``node_epoch_rejects_total``),
and generation-stamped RPCs against vacated placements must surface
``StalePlacementError`` — under the in-process transport and over real
TCP sockets alike (the error must survive pickling)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.client.gc import GcManager
from repro.core.cluster import Cluster
from repro.errors import StalePlacementError
from repro.ids import BlockAddr, Tid
from repro.net.tcp import TcpTransport
from repro.obs import Observability
from repro.storage.state import AddStatus, LockMode


def counter_total(obs: Observability, name: str) -> float:
    return sum(
        series["value"]
        for series in obs.registry.snapshot()["counters"]
        if series["name"] == name
    )


@pytest.fixture(params=["local", "tcp"])
def rig(request):
    """A placement cluster, grown and rebalanced, on either transport.

    Yields (cluster, obs, stripe, old_slots, new_slots, old_epoch) for
    a stripe whose placement changed in the migration.
    """
    obs = Observability.create()
    transport = TcpTransport() if request.param == "tcp" else None
    cluster = Cluster(
        2, 4, block_size=32, pool=6, seed=5, transport=transport,
        observability=obs,
    )
    writer = cluster.protocol_client("writer")
    for stripe in range(6):
        writer.write(stripe, 0, np.full(32, 10 + stripe, dtype=np.uint8))
    new = cluster.add_storage(4)
    placement = cluster.placement
    placement.propose(placement.members() | set(new))
    stripe = placement.moved_stripes(range(6))[0]
    old_slots = placement.slots_for(stripe, 0)
    old_epoch = cluster.node_for_slot(old_slots[0]).peek(
        BlockAddr("vol0", stripe, 0)
    ).epoch
    record = cluster.rebalancer("reb").migrate(stripe)
    assert record.result == "migrated"
    new_slots = placement.lookup(stripe)[1]
    yield cluster, obs, stripe, old_slots, new_slots, old_epoch
    if transport is not None:
        transport.close()


class TestEpochRejectAcrossRemap:
    def test_delayed_add_from_old_generation_is_rejected(self, rig):
        cluster, obs, stripe, _old, new_slots, old_epoch = rig
        # A writer that swapped before the migration delivers its delta
        # late: stamped with the pre-migration epoch, it must be turned
        # away by the same check that rejects post-recovery stragglers.
        laggard = cluster.protocol_client("laggard")
        before = counter_total(obs, "node_epoch_rejects_total")
        result = laggard.rpc(
            "write", stripe, 2, "add",
            np.full(32, 99, dtype=np.uint8),
            Tid(9, 0, "laggard"),
            None,
            old_epoch,
        )
        assert result.status is AddStatus.ERROR
        assert counter_total(obs, "node_epoch_rejects_total") == before + 1
        # The stripe was not corrupted by the attempt.
        reader = cluster.protocol_client("reader")
        assert bytes(reader.read(stripe, 0)) == bytes(
            np.full(32, 10 + stripe, dtype=np.uint8)
        )

    def test_stale_generation_rpc_raises_stale_placement(self, rig):
        cluster, obs, stripe, old_slots, new_slots, _epoch = rig
        moved = next(
            j for j in range(4) if old_slots[j] != new_slots[j]
        )
        vacated = cluster.directory.node_id(old_slots[moved])
        cluster.transport.register("laggard-2")
        before = counter_total(obs, "node_stale_placement_rejects_total")
        (answer,) = cluster.transport.call(
            "laggard-2", vacated, "get_state",
            {BlockAddr("vol0", stripe, moved): (0, ())},
        )
        # The stale stamp is the address's answer, and it crossed the
        # transport intact (in the wire codec's error taxonomy over TCP).
        assert isinstance(answer, StalePlacementError)
        assert answer.stripe == stripe
        assert answer.seen_gen == 0
        assert counter_total(
            obs, "node_stale_placement_rejects_total"
        ) == before + 1

    def test_stale_cached_client_refetches_and_succeeds(self, rig):
        cluster, _obs, stripe, _old, _new, _epoch = rig
        # Caches fill lazily, so force staleness: prime the cache with a
        # write, migrate the stripe to a further generation, then write
        # again through the now-stale entry.
        client = cluster.protocol_client("stale-writer")
        value = np.full(32, 77, dtype=np.uint8)
        client.write(stripe, 0, value)  # primes the cache at latest gen
        placement = cluster.placement
        newer = cluster.add_storage(2)
        placement.propose(placement.members() | set(newer))
        cluster.rebalancer("reb2").migrate_all(
            placement.pending_stripes([stripe])
        )
        value2 = np.full(32, 88, dtype=np.uint8)
        client.write(stripe, 0, value2)
        assert client.stats.stale_refetches > 0
        reader = cluster.protocol_client("reader")
        assert bytes(reader.read(stripe, 0)) == bytes(value2)

    def test_gc_frame_refuses_stale_addresses_and_refetches(self, rig):
        cluster, _obs, stripe, _old, _new, _epoch = rig
        # Prime the client's cache, then migrate the stripe once more:
        # the GC frames of the next round carry a stale generation for
        # every position of that stripe, and only for that stripe.
        client = cluster.protocol_client("gc-stale")
        other = next(s for s in range(6) if s != stripe)
        client.write(stripe, 0, np.full(32, 55, dtype=np.uint8))
        client.write(other, 0, np.full(32, 66, dtype=np.uint8))
        placement = cluster.placement
        newer = cluster.add_storage(2)
        placement.propose(placement.members() | set(newer))
        cluster.rebalancer("reb2").migrate_all(
            placement.pending_stripes([stripe])
        )
        gc = GcManager(client)
        gc.run_once()
        # Refused, not applied and not re-sent: the stripe's batches
        # roll over, the other stripe's went through.
        assert set(client.gc_pending) == {stripe}
        # The refusal invalidated the stale entry, so the next round
        # reaches the new placement and the batches go through.
        gc.run_once()
        assert client.gc_pending == {}
        assert gc.pending_tids() > 0  # awaiting gc_old
        gc.run_once()
        assert gc.pending_tids() == 0

    def test_gc_lock_refusal_keeps_cached_placement(self, rig):
        cluster, _obs, stripe, _old, _new, _epoch = rig
        # Only a stale stamp says the cached placement is wrong: a block
        # locked by a recovery refuses its GC batch without doubting it.
        client = cluster.protocol_client("gc-locked")
        client.write(stripe, 0, np.full(32, 55, dtype=np.uint8))
        locker = cluster.protocol_client("locker")
        for j in range(4):
            locker.rpc("recovery_phase1", stripe, j, "trylock", LockMode.L1,
                       "locker")
        fetches = client.placement.fetches
        gc = GcManager(client)
        for _ in range(2):
            gc.run_once()
            assert set(client.gc_pending) == {stripe}
        assert client.placement.fetches == fetches
