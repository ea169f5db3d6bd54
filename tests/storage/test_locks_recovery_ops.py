"""Storage-node lock and recovery operations (Fig. 6 server side)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import StalePlacementError
from repro.ids import BlockAddr, Tid
from repro.storage.state import LockMode, OpMode

from tests.storage.test_node_ops import BS, addr, block, make_node, tid


class TestTrylock:
    def test_acquire_from_unl(self):
        node = make_node()
        result = node.trylock(addr(0), LockMode.L1, caller="p")
        assert result.ok
        assert result.oldlmode is LockMode.UNL
        assert node.peek(addr(0)).lmode is LockMode.L1
        assert node.peek(addr(0)).lid == "p"

    def test_acquire_from_expired(self):
        node = make_node()
        node.trylock(addr(0), LockMode.L1, caller="p")
        node.on_client_failure("p")
        assert node.peek(addr(0)).lmode is LockMode.EXP
        result = node.trylock(addr(0), LockMode.L1, caller="q")
        assert result.ok
        assert result.oldlmode is LockMode.EXP

    def test_rejected_when_already_locked(self):
        node = make_node()
        node.trylock(addr(0), LockMode.L1, caller="p")
        result = node.trylock(addr(0), LockMode.L1, caller="q")
        assert not result.ok
        assert result.oldlmode is LockMode.L1
        assert node.peek(addr(0)).lid == "p"  # unchanged

    def test_rejected_when_l0(self):
        node = make_node()
        node.setlock(addr(0), LockMode.L0, caller="p")
        assert not node.trylock(addr(0), LockMode.L1, caller="q").ok


class TestSetlockAndExpiry:
    def test_setlock_unconditional(self):
        node = make_node()
        node.trylock(addr(0), LockMode.L1, caller="p")
        node.setlock(addr(0), LockMode.L0, caller="p")
        assert node.peek(addr(0)).lmode is LockMode.L0

    def test_expiry_only_for_holder(self):
        node = make_node()
        node.trylock(addr(0), LockMode.L1, caller="p")
        node.trylock(addr(1), LockMode.L1, caller="q")
        node.on_client_failure("p")
        assert node.peek(addr(0)).lmode is LockMode.EXP
        assert node.peek(addr(1)).lmode is LockMode.L1

    def test_expiry_ignores_unlocked(self):
        node = make_node()
        node.read(addr(0))
        node.on_client_failure("p")
        assert node.peek(addr(0)).lmode is LockMode.UNL

    def test_getrecent_relocks_and_returns_list(self):
        node = make_node()
        t1 = tid(1)
        node.add(addr(2), block(1), t1, None, 0)
        node.setlock(addr(2), LockMode.L0, caller="p")
        recent = node.getrecent(addr(2), LockMode.L1, caller="p")
        assert {entry.tid for entry in recent} == {t1}
        assert node.peek(addr(2)).lmode is LockMode.L1


class TestGetState:
    def test_norm_state_includes_block(self):
        node = make_node()
        node.swap(addr(0), block(3), tid(1))
        snap = node.get_state(addr(0))
        assert snap.opmode is OpMode.NORM
        assert snap.block[0] == 3

    def test_init_state_hides_block(self):
        node = make_node(fresh=True)
        snap = node.get_state(addr(0))
        assert snap.opmode is OpMode.INIT
        assert snap.block is None

    def test_recons_state_exposes_block(self):
        """Our documented deviation: RECONS blocks were written by a
        recovery and are valid, so a pickup recovery may read them."""
        node = make_node()
        node.reconstruct(addr(0), frozenset({1, 2}), block(5))
        snap = node.get_state(addr(0))
        assert snap.opmode is OpMode.RECONS
        assert snap.block[0] == 5

    def test_snapshot_lists_are_frozen_copies(self):
        node = make_node()
        node.swap(addr(0), block(1), tid(1))
        snap = node.get_state(addr(0))
        node.swap(addr(0), block(2), tid(2))
        assert len(snap.recentlist) == 1


class TestReconstructFinalize:
    def test_reconstruct_sets_limbo(self):
        node = make_node()
        epoch = node.reconstruct(addr(0), frozenset({0, 1}), block(9))
        assert epoch == 0
        state = node.peek(addr(0))
        assert state.opmode is OpMode.RECONS
        assert state.recons_set == frozenset({0, 1})
        assert state.block[0] == 9

    def test_reconstruct_revives_init_block(self):
        node = make_node(fresh=True)
        node.reconstruct(addr(0), frozenset({1, 2}), block(4))
        node.finalize(addr(0), 1)
        assert node.read(addr(0)).block[0] == 4

    def test_finalize_resets_everything(self):
        node = make_node()
        node.swap(addr(0), block(1), tid(1))
        node.trylock(addr(0), LockMode.L1, caller="p")
        node.reconstruct(addr(0), frozenset({0}), block(2))
        node.finalize(addr(0), 7)
        state = node.peek(addr(0))
        assert state.epoch == 7
        assert state.opmode is OpMode.NORM
        assert state.lmode is LockMode.UNL
        assert not state.recentlist and not state.oldlist
        assert state.lid is None

    def test_finalize_without_recons_keeps_opmode(self):
        node = make_node(fresh=True)
        node.finalize(addr(0), 3)
        # INIT node not reconstructed stays INIT (content still garbage).
        assert node.peek(addr(0)).opmode is OpMode.INIT

    def test_swap_after_finalize_uses_new_epoch(self):
        node = make_node()
        node.finalize(addr(0), 4)
        assert node.swap(addr(0), block(1), tid(1)).epoch == 4


class TestGcOps:
    """Each GC op works on one address: True when applied, False when
    refused."""

    def test_gc_recent_moves_to_oldlist(self):
        node = make_node()
        t1, t2 = tid(1), tid(2)
        node.add(addr(2), block(1), t1, None, 0)
        node.add(addr(2), block(1), t2, t1, 0)
        assert node.gc_recent(addr(2), [t1]) is True
        state = node.peek(addr(2))
        assert state.recent_tids() == {t2}
        assert state.old_tids() == {t1}

    def test_gc_old_discards(self):
        node = make_node()
        t1 = tid(1)
        node.add(addr(2), block(1), t1, None, 0)
        node.gc_recent(addr(2), [t1])
        assert node.gc_old(addr(2), [t1]) is True
        assert not node.peek(addr(2)).old_tids()

    def test_gc_rejected_while_locked(self):
        node = make_node()
        node.trylock(addr(2), LockMode.L1, caller="p")
        assert node.gc_recent(addr(2), []) is False
        assert node.gc_old(addr(2), []) is False

    def test_gc_unknown_tids_is_noop_ok(self):
        node = make_node()
        node.read(addr(2))
        assert node.gc_recent(addr(2), [tid(42)]) is True
        assert node.gc_old(addr(2), [tid(42)]) is True

    def test_gc_shrinks_metadata(self):
        node = make_node()
        tids = [tid(i) for i in range(1, 11)]
        prev = None
        for t in tids:
            node.add(addr(2), block(1), t, prev, 0)
            prev = t
        before = node.metadata_bytes()
        node.gc_recent(addr(2), tids)
        node.gc_old(addr(2), tids)
        assert node.metadata_bytes() < before


class TestGcFrames:
    """One GC frame covers every stripe a node holds a batch for; each
    address is answered on its own terms, in frame order."""

    def mixed_frame(self, gen=None, moved_gen=None):
        # A fresh node: every block starts INIT until reconstructed.
        node = make_node(fresh=True)
        live, locked, init, moved = (addr(2, stripe=s) for s in range(4))
        t1 = tid(1)
        for a in (live, locked, moved):
            node.reconstruct(a, frozenset({0, 1}), block(0))
            node.finalize(a, 1)
            node.add(a, block(1), t1, None, 1)
        node.trylock(locked, LockMode.L1, caller="p")
        frame = {a: (gen, ([t1],)) for a in (live, locked, init, moved)}
        if moved_gen is not None:
            frame[moved] = (moved_gen, ([t1],))
        return node, frame, (live, locked, init, moved)

    def test_only_norm_unlocked_addresses_apply(self):
        node, frame, (live, locked, init, moved) = self.mixed_frame()
        assert node.handle("gc_recent", frame) == [True, False, False, True]
        assert node.peek(live).old_tids() == {tid(1)}
        assert node.peek(moved).old_tids() == {tid(1)}
        assert node.peek(locked).recent_tids() == {tid(1)}
        assert node.peek(init).opmode is OpMode.INIT
        assert node.handle("gc_old", frame) == [True, False, False, True]
        assert not node.peek(live).old_tids()

    def test_stale_generation_address_is_refused(self):
        node, frame, (live, locked, init, moved) = self.mixed_frame(
            gen=5, moved_gen=4
        )
        node.set_generation(moved, 5)
        results = node.handle("gc_recent", frame)
        assert results[:3] == [True, False, False]
        assert isinstance(results[3], StalePlacementError)
        assert node.peek(live).old_tids() == {tid(1)}
        assert node.peek(moved).recent_tids() == {tid(1)}
        assert not node.peek(moved).old_tids()
        results = node.handle("gc_old", frame)
        assert results[:3] == [True, False, False]
        assert isinstance(results[3], StalePlacementError)
        assert not node.peek(live).old_tids()

    def test_retired_address_is_refused_under_any_stamp(self):
        node, frame, (live, _, _, moved) = self.mixed_frame(gen=3)
        node.retire(moved, 3)
        results = node.handle(
            "gc_recent", {live: frame[live], moved: frame[moved]}
        )
        assert results[0] is True
        assert isinstance(results[1], StalePlacementError)
        assert results[1].retired
        assert node.peek(moved).recent_tids() == {tid(1)}


class TestProbe:
    def test_probe_reports_opmode_and_age(self):
        node = make_node()
        opmode, lmode, age, _epoch = node.probe(addr(0))
        assert opmode is OpMode.NORM
        assert lmode is LockMode.UNL
        assert age is None
        node.swap(addr(0), block(1), tid(1))
        _, _, age, _ = node.probe(addr(0))
        assert age is not None and age >= 0
