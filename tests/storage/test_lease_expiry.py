"""Lease-based lock expiry — liveness without a perfect failure detector."""

from __future__ import annotations

import time

import numpy as np

from repro.core.cluster import Cluster
from repro.storage.state import LockMode, OpMode

from tests.storage.test_node_ops import addr, block, make_node, tid


def leased_node(lease=0.01, **kw):
    node = make_node(**kw)
    node.lock_lease = lease
    return node


class TestLeaseExpiry:
    def test_lock_expires_after_lease(self):
        node = leased_node(lease=0.005)
        node.trylock(addr(0), LockMode.L1, caller="p")
        time.sleep(0.01)
        result = node.read(addr(0))
        assert result.lmode is LockMode.EXP

    def test_lock_valid_within_lease(self):
        node = leased_node(lease=10.0)
        node.trylock(addr(0), LockMode.L1, caller="p")
        assert node.read(addr(0)).lmode is LockMode.L1

    def test_expired_lock_can_be_taken_over(self):
        node = leased_node(lease=0.005)
        node.trylock(addr(0), LockMode.L1, caller="p")
        time.sleep(0.01)
        result = node.trylock(addr(0), LockMode.L1, caller="q")
        assert result.ok
        assert result.oldlmode is LockMode.EXP

    def test_relock_refreshes_lease(self):
        node = leased_node(lease=0.05)
        node.trylock(addr(0), LockMode.L1, caller="p")
        time.sleep(0.03)
        node.setlock(addr(0), LockMode.L0, caller="p")  # refresh
        time.sleep(0.03)
        # Total 0.06s but only 0.03 since the refresh: still locked.
        assert node.read(addr(0)).lmode is LockMode.L0

    def test_disabled_by_default(self):
        node = make_node()
        node.trylock(addr(0), LockMode.L1, caller="p")
        time.sleep(0.005)
        assert node.read(addr(0)).lmode is LockMode.L1

    def test_l0_locks_also_expire(self):
        node = leased_node(lease=0.005)
        node.setlock(addr(2), LockMode.L0, caller="p")
        time.sleep(0.01)
        assert node.swap(addr(2), block(1), tid(1)).lmode is LockMode.EXP

    def test_unlocked_blocks_unaffected(self):
        node = leased_node(lease=0.001)
        time.sleep(0.005)
        assert node.read(addr(0)).lmode is LockMode.UNL


class TestLeaseDrivenRecoveryTakeover:
    def test_stuck_recovery_resolved_by_lease_without_crash_signal(self):
        """A recoverer stops mid-flight but its process is never marked
        crashed (no failure notification).  With leases, the next
        accessor sees EXP locks and takes the recovery over."""
        cluster = Cluster(k=2, n=4, block_size=64)
        # Retro-fit leases onto the live nodes.
        for slot in range(4):
            cluster.node_for_slot(slot).lock_lease = 0.02
        vol = cluster.client("good")
        vol.write_block(0, b"val")
        stuck = cluster.protocol_client("stuck")
        for j in range(4):
            stuck.rpc("recovery_phase1", 0, j, "trylock", LockMode.L1,
                      "stuck")
        # NOTE: no crash_client("stuck") — the detector never fires.
        time.sleep(0.03)
        assert vol.read_block(0)[:3] == b"val"
        assert cluster.stripe_consistent(0)
        assert vol.protocol.stats.recoveries_completed >= 1
