"""Crash-restart lifecycle: durable nodes rejoining with their own disk."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.client.config import ClientConfig
from repro.client.monitor import Monitor
from repro.core.cluster import Cluster
from repro.errors import WriteAbortedError
from repro.ids import BlockAddr
from repro.storage.wal import WalStore


def _cluster(**kwargs) -> Cluster:
    return Cluster(
        k=2,
        n=4,
        block_size=32,
        store_factory=lambda slot: WalStore(tag=f"slot{slot}"),
        **kwargs,
    )


#: Small budgets so writes into a pinned-down slot abort quickly.
_FAST = ClientConfig(
    degraded_reads=True, max_write_attempts=2, max_op_attempts=4,
    recovery_wait_limit=5,
)

BLOCKS = 8  # 4 stripes with k=2


@pytest.fixture
def seeded():
    cluster = _cluster()
    vol = cluster.client("seed", _FAST)
    for b in range(BLOCKS):
        vol.write_block(b, bytes([b + 1]))
    return cluster, vol


class TestCrashPolicies:
    def test_unknown_policy_rejected(self, seeded):
        cluster, _ = seeded
        with pytest.raises(ValueError, match="policy"):
            cluster.crash_storage(0, policy="reboot")

    def test_restart_policy_needs_restartable_store(self):
        cluster = Cluster(k=2, n=4, block_size=32)  # no stores at all
        with pytest.raises(ValueError, match="restart-capable"):
            cluster.crash_storage(0, policy="restart")

    def test_restart_without_crash_rejected(self, seeded):
        cluster, _ = seeded
        with pytest.raises(ValueError, match="policy='restart'"):
            cluster.restart_storage(0)

    def test_remap_policy_provisions_fresh_node(self, seeded):
        cluster, vol = seeded
        old = cluster.crash_storage(0)  # default policy="remap"
        assert vol.read_block(0)[:1] == bytes([1])  # degraded/recovered
        assert cluster.directory.node_id(0) != old

    def test_restart_policy_pins_slot_against_remap(self, seeded):
        cluster, vol = seeded
        node_id = cluster.crash_storage(1, policy="restart")
        assert cluster.directory.is_pinned(1)
        # Reads during downtime go degraded; the binding never moves.
        for b in range(BLOCKS):
            assert vol.read_block(b)[:1] == bytes([b + 1])
        assert cluster.directory.node_id(1) == node_id
        cluster.restart_storage(1)
        assert not cluster.directory.is_pinned(1)


class TestCleanRestart:
    def test_replays_exact_pre_crash_state(self, seeded):
        cluster, vol = seeded
        before = {}
        node = cluster.node_for_slot(1)
        for addr in cluster.stores[1].addresses():
            state = node.peek(addr)
            before[addr] = (
                state.block.copy(), state.opmode, state.epoch,
                frozenset(state.recentlist), frozenset(state.oldlist),
            )
        cluster.crash_storage(1, policy="restart")
        report = cluster.restart_storage(1)
        assert report.clean
        assert report.blocks_restored == len(before)
        assert report.records_replayed >= len(before)
        node = cluster.node_for_slot(1)
        for addr, (block, opmode, epoch, recent, old) in before.items():
            state = node.peek(addr)
            assert np.array_equal(state.block, block)
            assert state.opmode is opmode
            assert state.epoch == epoch
            assert frozenset(state.recentlist) == recent
            assert frozenset(state.oldlist) == old

    def test_serves_reads_without_any_recovery(self, seeded):
        cluster, vol = seeded
        cluster.crash_storage(1, policy="restart")
        cluster.restart_storage(1)
        reader = cluster.client("reader", ClientConfig())
        for b in range(BLOCKS):
            assert reader.read_block(b)[:1] == bytes([b + 1])
        assert reader.protocol.stats.recoveries_started == 0
        assert reader.protocol.stats.remaps == 0

    def test_monitor_deep_sweep_finds_nothing(self, seeded):
        cluster, vol = seeded
        cluster.crash_storage(1, policy="restart")
        cluster.restart_storage(1)
        monitor = Monitor(
            cluster.protocol_client("mon", _FAST), stale_after=math.inf
        )
        report = monitor.sweep(range(BLOCKS // 2), deep=True)
        assert report.delta_behind == 0
        assert report.recovered_stripes == []


def _delta_blocks(cluster, down_slot: int, count: int) -> list[int]:
    """Blocks (on distinct stripes) whose stripe holds ``down_slot`` at
    a *redundant* position while their own data node is up.  A write to
    such a block applies its swap and its other adds, then aborts on
    the unreachable redundant node — exactly the partial write that
    leaves a restarted node delta behind."""
    out, stripes = [], set()
    for b in range(BLOCKS):
        loc = cluster.layout.locate(b)
        slots = [
            cluster.layout.node_of_stripe_index(loc.stripe, j)
            for j in range(cluster.code.n)
        ]
        if (
            loc.stripe not in stripes
            and slots[loc.data_index] != down_slot
            and down_slot in slots[cluster.code.k:]
        ):
            out.append(b)
            stripes.add(loc.stripe)
    assert len(out) >= count, "layout holds no such blocks?"
    return out[:count]


class TestDeltaBehindRestart:
    def _downtime_writes(self, cluster, vol, blocks):
        """Write (and abort) against a pinned-down slot."""
        for b in blocks:
            with pytest.raises(WriteAbortedError):
                vol.write_block(b, bytes([100 + b]))

    def test_monitor_repairs_only_missed_stripes(self, seeded):
        cluster, vol = seeded
        cluster.crash_storage(1, policy="restart")
        touched = _delta_blocks(cluster, 1, 2)
        self._downtime_writes(cluster, vol, touched)
        report = cluster.restart_storage(1)
        assert report.clean
        monitor = Monitor(
            cluster.protocol_client("mon", _FAST), stale_after=math.inf
        )
        sweep = monitor.sweep(range(BLOCKS // 2), deep=True)
        expected = sorted({cluster.layout.locate(b).stripe for b in touched})
        assert sweep.recovered_stripes == expected
        assert sweep.delta_behind == len(expected)
        # Untouched stripes were not repaired; data all readable.
        for b in range(BLOCKS):
            value = vol.read_block(b)[:1]
            assert value in (bytes([b + 1]), bytes([100 + b]))
        for s in range(BLOCKS // 2):
            assert cluster.stripe_consistent(s)


class TestDirtyRestart:
    def test_torn_tail_degrades_to_init_and_is_repaired(self, seeded):
        cluster, vol = seeded
        cluster.crash_storage(1, policy="restart", media_force="torn")
        report = cluster.restart_storage(1)
        assert not report.clean
        assert "torn" in report.reason
        assert report.blocks_restored == 0
        # The node is fresh INIT: every one of its stripes needs repair,
        # and the monitor (shallow probes suffice for INIT) finds them.
        monitor = Monitor(
            cluster.protocol_client("mon", _FAST), stale_after=math.inf
        )
        sweep = monitor.sweep(range(BLOCKS // 2), deep=True)
        assert sweep.init_blocks > 0
        assert sweep.recovered_stripes == list(range(BLOCKS // 2))
        for b in range(BLOCKS):
            assert vol.read_block(b)[:1] == bytes([b + 1])
        assert not cluster.verify_store_consistency()

    def test_lost_tail_also_detected(self, seeded):
        cluster, _ = seeded
        cluster.crash_storage(1, policy="restart", media_force="lost")
        report = cluster.restart_storage(1)
        assert not report.clean
        assert "lost" in report.reason


class TestStoreAudit:
    def test_consistent_after_writes_and_restart(self, seeded):
        cluster, vol = seeded
        assert cluster.verify_store_consistency() == []
        cluster.crash_storage(1, policy="restart")
        cluster.restart_storage(1)
        assert cluster.verify_store_consistency() == []

    def test_detects_tampered_store(self, seeded):
        cluster, _ = seeded
        addr = BlockAddr("vol0", 0, 0)
        slot = cluster.layout.node_of_stripe_index(0, 0)
        node = cluster.node_for_slot(slot)
        node._blocks[addr].block[0] ^= 0xFF  # memory diverges from disk
        mismatches = cluster.verify_store_consistency()
        assert any("persisted block != memory" in m for m in mismatches)
