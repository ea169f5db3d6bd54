"""A client crash between GC phases (Fig. 7) must never strand a tid:
phase 1 already discarded the older generation from oldlists, phase 2
never moved the newer one — and any later GC pass still collects it."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.invariants import check_stripe, stripe_states
from repro.client.gc import GcManager
from repro.core.cluster import Cluster
from repro.crashpoints import CrashPlan
from repro.errors import ClientCrash
from repro.storage.state import LockMode


def value(tag: int, size: int = 32) -> np.ndarray:
    return np.full(size, tag, dtype=np.uint8)


class TestGcCrashBetweenPhases:
    def test_crash_leaves_tids_a_later_pass_still_collects(self):
        cluster = Cluster(k=2, n=4, block_size=32)
        victim = cluster.protocol_client("gc-victim")
        gc = GcManager(victim)

        victim.write(0, 0, value(1))
        victim.write(0, 1, value(2))
        # Round 1: both completed tids move recentlist -> oldlist.
        gc.run_once()
        victim.write(0, 0, value(3))

        plan = CrashPlan()
        plan.arm("gc.between_phases")
        victim.crashpoints = plan
        # Round 2 dies between phases: gc_old discarded round 1's
        # generation from the oldlists, gc_recent never ran.
        with pytest.raises(ClientCrash):
            gc.run_once()
        assert plan.fired("gc.between_phases")

        # The newer generation is stranded in recentlists -- but at
        # EVERY position its write addressed, which is exactly the
        # paper's G-set claim ("in some oldlist => occurred at all
        # nodes" extends to what phase 2 left behind).
        states = stripe_states(cluster, 0)
        stranded = states[0].recent_tids()
        assert stranded, "expected the third write's tid in recentlists"
        for j in (0, 2, 3):  # data position 0 plus all redundant
            assert stranded <= states[j].recent_tids()
        assert check_stripe(cluster, 0) == []

        # A different client's GC pass (fed the stranded tids, as its
        # own completed-write notes would be) collects them fully.
        survivor = cluster.protocol_client("gc-survivor")
        survivor.gc_pending = {
            0: {j: set(states[j].recent_tids()) for j in (0, 1, 2, 3)}
        }
        later = GcManager(survivor)
        later.run_once()  # recentlist -> oldlist
        later.run_once()  # oldlist -> gone
        final = stripe_states(cluster, 0)
        for j in range(4):
            assert final[j].recent_tids() == set()
            assert final[j].old_tids() == set()
        assert check_stripe(cluster, 0) == []

    def test_crash_between_multi_stripe_frames(self):
        """Per-node frames make one phase span every stripe of the round:
        the crash point sits after *all* gc_old frames and before *any*
        gc_recent frame.  Three stripes, one of them locked (its
        batches are refused and must roll over); every stripe stays
        clean and a later pass, fed the stranded tids, empties every
        list."""
        cluster = Cluster(k=2, n=4, block_size=32)
        victim = cluster.protocol_client("gc-victim")
        gc = GcManager(victim)
        stripes = (0, 1, 2)
        for stripe in stripes:
            victim.write(stripe, 0, value(1 + stripe))
            victim.write(stripe, 1, value(4 + stripe))
        gc.run_once()  # round 1: every stripe's tids recent -> old
        for stripe in stripes:
            victim.write(stripe, 0, value(7 + stripe))

        locker = cluster.protocol_client("locker")
        for j in range(4):
            locker.rpc("recovery_phase1", 1, j, "trylock", LockMode.L1,
                       "locker")
        plan = CrashPlan()
        plan.arm("gc.between_phases")
        victim.crashpoints = plan
        with pytest.raises(ClientCrash) as info:
            gc.run_once()
        assert info.value.detail == {"stripes": list(stripes)}
        for j in range(4):
            locker.rpc("recovery_abort", 1, j, "setlock", LockMode.UNL,
                       "locker")

        states = {stripe: stripe_states(cluster, stripe) for stripe in stripes}
        for stripe in (0, 2):
            # gc_old went through: round 1's generation is gone, the
            # newest write is stranded in recentlists.
            for j in range(4):
                assert states[stripe][j].old_tids() == set()
            assert states[stripe][0].recent_tids()
        # The locked stripe refused its gc_old frame entry: both
        # generations are still listed.
        assert states[1][0].old_tids() and states[1][0].recent_tids()
        for stripe in stripes:
            assert check_stripe(cluster, stripe) == []

        survivor = cluster.protocol_client("gc-survivor")
        survivor.gc_pending = {
            stripe: {
                j: states[stripe][j].recent_tids() | states[stripe][j].old_tids()
                for j in range(4)
            }
            for stripe in stripes
        }
        later = GcManager(survivor)
        later.run_once()  # recentlist -> oldlist
        later.run_once()  # oldlist -> gone
        for stripe in stripes:
            for state in stripe_states(cluster, stripe).values():
                assert state.recent_tids() == set()
                assert state.old_tids() == set()
            assert check_stripe(cluster, stripe) == []

    def test_recovery_is_the_other_collector(self):
        """The dead client's in-memory completed-write notes die with
        it, so its own GC can never finish the round -- but a recovery
        pass (whose finalize resets all tid lists) also collects the
        stranded generation, without any GC bookkeeping."""
        cluster = Cluster(k=2, n=4, block_size=32)
        victim = cluster.protocol_client("gc-victim")
        gc = GcManager(victim)
        victim.write(0, 0, value(1))

        plan = CrashPlan()
        plan.arm("gc.between_phases")
        victim.crashpoints = plan
        with pytest.raises(ClientCrash):
            gc.run_once()

        # Stranded but healthy: the tid is everywhere it was addressed.
        assert check_stripe(cluster, 0) == []

        survivor = cluster.protocol_client("gc-survivor")
        assert survivor.recover(0)
        states = stripe_states(cluster, 0)
        leftovers = {
            j: states[j].recent_tids() | states[j].old_tids() for j in range(4)
        }
        assert all(not tids for tids in leftovers.values()), leftovers
        assert check_stripe(cluster, 0) == []
        # The written value survived collection.
        reader = cluster.protocol_client("reader")
        assert bytes(reader.read(0, 0)) == bytes(value(1))
