"""Live stripe migration: the Rebalancer's commit protocol, its crash
windows, retry-budget discipline, and graceful failure modes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.invariants import STRIPE_INVARIANTS, check_stripe
from repro.client.config import ClientConfig
from repro.client.monitor import Monitor
from repro.core.cluster import Cluster
from repro.crashpoints import CrashPlan
from repro.errors import ClientCrash, NodeBusyError, RpcTimeoutError
from repro.ids import BlockAddr
from repro.net.backpressure import RetryBudget
from repro.storage.state import LockMode

ELASTIC_INVARIANTS = STRIPE_INVARIANTS + ("placement_agrees",)


def fill(size, value):
    return np.full(size, value % 256, dtype=np.uint8)


def grown_cluster(seed=5, pool=6, grow=4):
    """A placement cluster with every stripe written, grown, and a new
    generation proposed (nothing migrated yet)."""
    cluster = Cluster(2, 4, block_size=32, pool=pool, seed=seed)
    writer = cluster.protocol_client("writer")
    for stripe in range(6):
        writer.write(stripe, 0, fill(32, 10 + stripe))
    new = cluster.add_storage(grow)
    cluster.placement.propose(cluster.placement.members() | set(new))
    return cluster, writer


class TestMigration:
    def test_full_migration_and_readback(self):
        cluster, _ = grown_cluster()
        placement = cluster.placement
        moved = placement.moved_stripes(range(6))
        assert moved
        report = cluster.rebalancer("reb").migrate_all(
            placement.pending_stripes(range(6))
        )
        assert not report.unfinished
        assert report.count("migrated") == len(moved)
        reader = cluster.protocol_client("reader")
        for stripe in range(6):
            assert bytes(reader.read(stripe, 0)) == bytes(fill(32, 10 + stripe))
            assert check_stripe(cluster, stripe, invariants=ELASTIC_INVARIANTS) == []

    def test_second_pass_skips_everything(self):
        cluster, _ = grown_cluster()
        reb = cluster.rebalancer("reb")
        reb.migrate_all(cluster.placement.pending_stripes(range(6)))
        again = reb.migrate_all(range(6))
        assert again.count("skipped") == 6
        assert again.bytes_moved == 0

    def test_unmoved_stripes_commit_without_copying(self):
        cluster, _ = grown_cluster()
        placement = cluster.placement
        moved = set(placement.moved_stripes(range(64)))
        trivial = [s for s in range(64) if s not in moved][:4]
        assert trivial, "seed moved every stripe; pick another"
        report = cluster.rebalancer("reb").migrate_all(trivial)
        assert report.count("committed") == len(trivial)
        assert report.bytes_moved == 0
        for stripe in trivial:
            assert placement.committed_gen(stripe) == placement.latest_gen

    def test_migration_bumps_the_stripe_epoch(self):
        cluster, _ = grown_cluster()
        placement = cluster.placement
        stripe = placement.moved_stripes(range(6))[0]
        before = max(
            cluster.node_for_slot(slot).peek(BlockAddr("vol0", stripe, j)).epoch
            for j, slot in enumerate(placement.slots_for(stripe, 0))
        )
        cluster.rebalancer("reb").migrate(stripe)
        slots = placement.lookup(stripe)[1]
        after = {
            cluster.node_for_slot(slot).peek(BlockAddr("vol0", stripe, j)).epoch
            for j, slot in enumerate(slots)
        }
        assert after == {before + 1}

    def test_vacated_pairs_are_retired_and_shared_pairs_keep_bytes(self):
        cluster, _ = grown_cluster()
        placement = cluster.placement
        stripe = placement.moved_stripes(range(6))[0]
        old_slots = placement.slots_for(stripe, 0)
        new_slots = placement.slots_for(stripe, placement.latest_gen)
        record = cluster.rebalancer("reb").migrate(stripe)
        shared = sum(a == b for a, b in zip(old_slots, new_slots))
        # Same-slot pairs inside the consistent set are not re-copied.
        assert record.copied_positions <= 4 - shared
        assert record.bytes_moved == record.copied_positions * 32
        for j, (old, new) in enumerate(zip(old_slots, new_slots)):
            addr = BlockAddr("vol0", stripe, j)
            if old != new:
                assert cluster.node_for_slot(old).is_retired(addr)
            assert not cluster.node_for_slot(new).is_retired(addr)
            assert (
                cluster.node_for_slot(new).stripe_generation("vol0", stripe)
                == placement.latest_gen
            )

    def test_yields_to_a_competing_lock_holder(self):
        cluster, _ = grown_cluster()
        placement = cluster.placement
        stripe = placement.moved_stripes(range(6))[0]
        slot = placement.slots_for(stripe, 0)[0]
        holder = cluster.protocol_client("holder")
        holder.rpc("recovery_phase1", stripe, 0, "trylock", LockMode.L1,
                   "holder")
        reb = cluster.rebalancer("reb")
        record = reb.migrate(stripe)
        assert record.result == "yielded"
        assert placement.committed_gen(stripe) == 0
        # The holder's lock survived; everything else was released.
        for j, s in enumerate(placement.slots_for(stripe, 0)):
            state = cluster.node_for_slot(s).peek(BlockAddr("vol0", stripe, j))
            if s == slot and j == 0:
                assert state.lmode is LockMode.L1 and state.lid == "holder"
            else:
                assert state.lmode is LockMode.UNL

    def test_unreconstructable_stripe_fails_cleanly(self):
        """With fewer than k consistent blocks at the old placement the
        migration must fail, release its locks, and commit nothing —
        the stripe keeps serving (what it can) where it was."""
        from repro.storage.state import OpMode

        cluster, _ = grown_cluster()
        placement = cluster.placement
        stripe = placement.moved_stripes(range(6))[0]
        for j, slot in enumerate(placement.slots_for(stripe, 0)):
            if j >= 1:  # leave 1 < k=2 positions intact
                state = cluster.node_for_slot(slot).peek(
                    BlockAddr("vol0", stripe, j)
                )
                state.opmode = OpMode.INIT
        record = cluster.rebalancer("reb").migrate(stripe)
        assert record.result == "failed"
        assert placement.committed_gen(stripe) == 0
        for gen in (0, placement.latest_gen):
            for j, slot in enumerate(placement.slots_for(stripe, gen)):
                state = cluster.node_for_slot(slot).peek(
                    BlockAddr("vol0", stripe, j)
                )
                assert state.lmode is LockMode.UNL


    def test_migration_rpcs_feed_the_shared_health_registry(self):
        cluster, _ = grown_cluster()
        placement = cluster.placement
        stripe = placement.moved_stripes(range(6))[0]
        slots = set(placement.slots_for(stripe, placement.committed_gen(stripe)))
        slots |= set(placement.slots_for(stripe, placement.latest_gen))
        nodes = {cluster.directory.node_id(slot) for slot in slots}
        before = cluster.health.snapshot()
        assert cluster.rebalancer("reb").migrate(stripe).result == "migrated"
        after = cluster.health.snapshot()
        for node in nodes:
            earlier = before[node].successes if node in before else 0
            assert after[node].successes > earlier, node


class TestCrashWindows:
    @pytest.mark.parametrize("point", [
        "rebalance.before_copy",
        "rebalance.before_commit",
    ])
    def test_precommit_crash_leaves_old_placement_serving(self, point):
        cluster, _ = grown_cluster()
        placement = cluster.placement
        stripe = placement.moved_stripes(range(6))[0]
        plan = CrashPlan()
        plan.arm(point)
        reb = cluster.rebalancer("victim", crashpoints=plan)
        with pytest.raises(ClientCrash):
            reb.migrate(stripe)
        cluster.crash_client("victim")
        # Map untouched; a degraded reader still gets the bytes at the
        # old placement.
        assert placement.committed_gen(stripe) == 0
        reader = cluster.protocol_client(
            "reader", ClientConfig(degraded_reads=True)
        )
        assert bytes(reader.read(stripe, 0)) == bytes(fill(32, 10 + stripe))
        # A fresh pass completes the migration.
        record = cluster.rebalancer("resume").migrate(stripe)
        assert record.result == "migrated"
        assert check_stripe(cluster, stripe, invariants=ELASTIC_INVARIANTS) == []
        reader2 = cluster.protocol_client("reader2")
        assert bytes(reader2.read(stripe, 0)) == bytes(fill(32, 10 + stripe))

    def test_postcommit_crash_is_finished_by_ordinary_recovery(self):
        cluster, _ = grown_cluster()
        placement = cluster.placement
        stripe = placement.moved_stripes(range(6))[0]
        plan = CrashPlan()
        plan.arm("rebalance.after_commit")
        reb = cluster.rebalancer("victim", crashpoints=plan)
        with pytest.raises(ClientCrash):
            reb.migrate(stripe)
        cluster.crash_client("victim")
        # The commit landed, so a rebalance pass has nothing to do; the
        # new placement sits in RECONS/EXP until recovery's pickup path
        # finalizes it in place.
        assert placement.committed_gen(stripe) == placement.latest_gen
        assert cluster.rebalancer("resume").migrate(stripe).result == "skipped"
        sweeper = cluster.protocol_client("sweeper")
        report = Monitor(sweeper, stale_after=0.0).sweep([stripe], deep=True)
        assert stripe in report.recovered_stripes
        assert check_stripe(cluster, stripe, invariants=ELASTIC_INVARIANTS) == []
        reader = cluster.protocol_client("reader")
        assert bytes(reader.read(stripe, 0)) == bytes(fill(32, 10 + stripe))


class TestRetryBudget:
    def _flake_once_per_op(self, cluster, error, who="reb"):
        """Every distinct (dst, op) from ``who`` fails once with ``error``."""
        inner = cluster.transport
        original = inner.call
        seen: set[tuple[str, str]] = set()

        def flaky(src, dst, op, *args, **kwargs):
            if src == who and (dst, op) not in seen:
                seen.add((dst, op))
                raise error(dst, op)
            return original(src, dst, op, *args, **kwargs)

        inner.call = flaky

    def _migrate_through_flakes(self, error) -> RetryBudget:
        cluster, _ = grown_cluster()
        budget = RetryBudget(50)
        self._flake_once_per_op(cluster, error)
        reb = cluster.rebalancer("reb")
        reb.client.retry_budget = budget
        stripe = cluster.placement.moved_stripes(range(6))[0]
        assert reb.migrate(stripe).result == "migrated"
        return budget

    def test_retries_spend_and_refill_the_shared_budget(self):
        assert self._migrate_through_flakes(RpcTimeoutError).spent > 0
        # A shed is backed off inside the call, as for every agent, and
        # costs no token.
        assert self._migrate_through_flakes(NodeBusyError).spent == 0

    def test_exhausted_budget_yields_instead_of_hammering(self):
        cluster, _ = grown_cluster()
        inner = cluster.transport
        original = inner.call

        def always_busy(src, dst, op, *args, **kwargs):
            if src == "reb" and op == "trylock":
                raise NodeBusyError(dst, op)
            return original(src, dst, op, *args, **kwargs)

        inner.call = always_busy
        budget = RetryBudget(2, refill=0.0)
        reb = cluster.rebalancer("reb")
        reb.client.retry_budget = budget
        stripe = cluster.placement.moved_stripes(range(6))[0]
        report = reb.migrate_all([stripe])
        assert report.records[0].result in ("yielded", "failed")
        assert budget.exhausted > 0
        assert cluster.placement.committed_gen(stripe) == 0
