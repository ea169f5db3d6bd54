"""Storage-node operations: the state machine of Figs. 4-5."""

from __future__ import annotations

import numpy as np
import pytest

from repro.erasure.rs import ReedSolomonCode
from repro.erasure.striping import StripeLayout
from repro.errors import StalePlacementError, UnknownOperationError
from repro.ids import BlockAddr, Tid
from repro.obs.metrics import MetricsRegistry
from repro.storage.node import BROADCAST_INDEX, StorageNode, VolumeMeta
from repro.storage.state import (
    AddStatus,
    CheckTidStatus,
    LockMode,
    OpMode,
)

BS = 32


def make_node(slot=0, fresh=False, k=2, n=4, rotate=False):
    meta = VolumeMeta(
        code=ReedSolomonCode(k, n),
        layout=StripeLayout(k, n, rotate=rotate),
        block_size=BS,
    )
    return StorageNode(f"s{slot}", slot, {"vol": meta}, fresh=fresh, seed=slot)


def addr(index, stripe=0):
    return BlockAddr("vol", stripe, index)


def tid(seq, index=0, client="c"):
    return Tid(seq, index, client)


def block(fill):
    return np.full(BS, fill, dtype=np.uint8)


def frame(*addrs, gen=None, args=()):
    """A frame carrying the same stamp and arguments for every address."""
    return {a: (gen, args) for a in addrs}


class TestDispatch:
    def test_handle_routes_operations(self):
        node = make_node()
        (result,) = node.handle("read", frame(addr(0)))
        assert result.lmode is LockMode.UNL

    def test_unknown_operation_rejected(self):
        node = make_node()
        with pytest.raises(UnknownOperationError):
            node.handle("format_disk", frame(addr(0)))

    def test_unknown_volume_rejected(self):
        node = make_node()
        with pytest.raises(UnknownOperationError):
            node.handle("read", frame(BlockAddr("nope", 0, 0)))

    def test_op_counts_tracked(self):
        node = make_node()
        node.metrics = MetricsRegistry()
        node.handle("read", frame(addr(0)))
        node.handle("read", frame(addr(0), addr(1)))
        # One count per frame, however many addresses it carries.
        assert node.metrics.sum_counter("node_ops_total", op="read") == 2


class TestFrames:
    """``handle(op, {addr: (gen, args)})`` answers one result per
    address, in frame order; a stale stamp is that address's answer."""

    @pytest.mark.parametrize(
        "op, args",
        [
            ("read", ()),
            ("probe", ()),
            ("get_state", ()),
            ("fingerprint", ()),
            ("checktid", (tid(1), None)),
        ],
    )
    def test_two_address_frame_answers_in_frame_order(self, op, args):
        node = make_node()
        # Two stripes in different states, listed out of address order:
        # stripe 5 holds a write, stripe 1 is untouched.
        written, blank = addr(0, stripe=5), addr(0, stripe=1)
        node.swap(written, block(7), tid(1))
        results = node.handle(op, frame(written, blank, args=args))
        method = getattr(node, op)
        assert len(results) == 2
        for a, result in zip((written, blank), results):
            expected = method(a, *args)
            if op == "probe":
                # The recentlist age keeps growing; compare the rest.
                assert (result[0], result[1], result[3]) == (
                    expected[0], expected[1], expected[3]
                )
                assert (result[2] is None) == (a == blank)
            elif op == "read":
                assert np.array_equal(result.block, expected.block)
            elif op == "get_state":
                assert np.array_equal(result.block, expected.block)
                assert result.recentlist == expected.recentlist
            else:
                assert result == expected

    def test_stale_stamp_is_that_address_answer(self):
        node = make_node()
        node.metrics = MetricsRegistry()
        current, stale = addr(0, stripe=0), addr(0, stripe=1)
        node.swap(current, block(3), tid(1))
        node.set_generation(current, 2)
        node.set_generation(stale, 4)
        results = node.handle("get_state", {current: (2, ()), stale: (3, ())})
        assert results[0].block[0] == 3
        assert isinstance(results[1], StalePlacementError)
        assert results[1].stripe == 1
        assert results[1].seen_gen == 3
        assert node.metrics.sum_counter(
            "node_stale_placement_rejects_total"
        ) == 1

    def test_unstamped_entry_for_retired_address_is_served(self):
        """The rebalancer's path: it stamps nothing, so it still reads
        a block this node migrated away."""
        node = make_node()
        node.swap(addr(0), block(9), tid(1))
        node.retire(addr(0), 3)
        (unstamped,) = node.handle("read", frame(addr(0)))
        assert unstamped.block[0] == 9
        (stamped,) = node.handle("read", frame(addr(0), gen=3))
        assert isinstance(stamped, StalePlacementError)
        assert stamped.retired


class TestInitialState:
    def test_original_node_blocks_start_zero_norm(self):
        node = make_node(fresh=False)
        result = node.read(addr(0))
        assert result.block is not None
        assert not result.block.any()

    def test_fresh_node_blocks_are_init_garbage(self):
        node = make_node(fresh=True)
        result = node.read(addr(0))
        assert result.block is None  # INIT blocks unreadable
        state = node.peek(addr(0))
        assert state.opmode is OpMode.INIT
        assert state.block.any()  # random garbage, not zeros

    def test_block_count_lazy(self):
        node = make_node()
        assert node.block_count() == 0
        node.read(addr(0))
        node.read(addr(1, stripe=3))
        assert node.block_count() == 2


class TestRead:
    def test_read_returns_content(self):
        node = make_node()
        node.swap(addr(0), block(7), tid(1))
        assert node.read(addr(0)).block[0] == 7

    def test_read_returns_copy(self):
        node = make_node()
        node.swap(addr(0), block(7), tid(1))
        got = node.read(addr(0)).block
        got[:] = 0
        assert node.read(addr(0)).block[0] == 7

    def test_read_blocked_when_locked(self):
        node = make_node()
        node.trylock(addr(0), LockMode.L1, caller="c")
        result = node.read(addr(0))
        assert result.block is None
        assert result.lmode is LockMode.L1


class TestSwap:
    def test_swap_returns_old_and_installs_new(self):
        node = make_node()
        first = node.swap(addr(0), block(1), tid(1))
        assert not first.block.any()
        second = node.swap(addr(0), block(2), tid(2))
        assert second.block[0] == 1
        assert node.read(addr(0)).block[0] == 2

    def test_swap_returns_previous_tid(self):
        node = make_node()
        t1, t2 = tid(1), tid(2)
        assert node.swap(addr(0), block(1), t1).otid is None
        assert node.swap(addr(0), block(2), t2).otid == t1
        assert node.swap(addr(0), block(3), tid(3)).otid == t2

    def test_swap_records_tid_in_recentlist(self):
        node = make_node()
        t1 = tid(1)
        node.swap(addr(0), block(1), t1)
        assert t1 in node.peek(addr(0)).recent_tids()

    def test_swap_rejected_when_locked(self):
        node = make_node()
        node.trylock(addr(0), LockMode.L1, caller="c")
        result = node.swap(addr(0), block(1), tid(1))
        assert result.block is None
        assert result.lmode is LockMode.L1

    def test_swap_rejected_on_init(self):
        node = make_node(fresh=True)
        result = node.swap(addr(0), block(1), tid(1))
        assert result.block is None

    def test_swap_copies_value(self):
        node = make_node()
        v = block(9)
        node.swap(addr(0), v, tid(1))
        v[:] = 0
        assert node.read(addr(0)).block[0] == 9

    def test_swap_returns_epoch(self):
        node = make_node()
        assert node.swap(addr(0), block(1), tid(1)).epoch == 0


class TestAdd:
    def test_add_xors_content(self):
        node = make_node()
        node.add(addr(2), block(0b1100), tid(1), None, 0)
        node.add(addr(2), block(0b1010), tid(2), None, 0)
        assert node.peek(addr(2)).block[0] == 0b0110

    def test_add_rejected_on_old_epoch(self):
        node = make_node()
        node.finalize(addr(2), 5)
        result = node.add(addr(2), block(1), tid(1), None, 4)
        assert result.status is AddStatus.ERROR

    def test_add_accepts_current_epoch(self):
        node = make_node()
        node.finalize(addr(2), 5)
        assert node.add(addr(2), block(1), tid(1), None, 5).status is AddStatus.OK

    def test_add_order_when_otid_unknown(self):
        node = make_node()
        result = node.add(addr(2), block(1), tid(2), tid(1), 0)
        assert result.status is AddStatus.ORDER
        # Content untouched on ORDER.
        assert not node.peek(addr(2)).block.any()

    def test_add_proceeds_once_otid_seen(self):
        node = make_node()
        t1 = tid(1)
        node.add(addr(2), block(1), t1, None, 0)
        assert node.add(addr(2), block(2), tid(2), t1, 0).status is AddStatus.OK

    def test_add_otid_in_oldlist_suffices(self):
        node = make_node()
        t1 = tid(1)
        node.add(addr(2), block(1), t1, None, 0)
        node.gc_recent(addr(2), [t1])
        assert t1 not in node.peek(addr(2)).recent_tids()
        assert node.add(addr(2), block(2), tid(2), t1, 0).status is AddStatus.OK

    def test_add_allowed_under_l0(self):
        node = make_node()
        node.trylock(addr(2), LockMode.L0, caller="c")
        assert node.add(addr(2), block(1), tid(1), None, 0).status is AddStatus.OK

    def test_add_rejected_under_l1(self):
        node = make_node()
        node.trylock(addr(2), LockMode.L1, caller="c")
        result = node.add(addr(2), block(1), tid(1), None, 0)
        assert result.status is AddStatus.ERROR
        assert result.lmode is LockMode.L1

    def test_broadcast_add_applies_own_coefficient(self):
        # Node at slot 2 serves stripe position 2 (no rotation).
        node = make_node(slot=2)
        code = node.volumes["vol"].code
        diff = block(5)
        ntid = tid(1, index=1)
        result = node.add(BlockAddr("vol", 0, BROADCAST_INDEX), diff, ntid, None, 0)
        assert result.status is AddStatus.OK
        coeff = code.coefficient(2, 1)
        from repro.gf import field

        assert np.array_equal(node.peek(addr(2)).block, field.mul_block(coeff, diff))

    def test_broadcast_add_on_data_slot_rejected(self):
        node = make_node(slot=0)  # slot 0 holds a data block, not redundancy
        with pytest.raises(UnknownOperationError):
            node.add(BlockAddr("vol", 0, BROADCAST_INDEX), block(1), tid(1), None, 0)


class TestChecktid:
    def test_init_when_ntid_missing(self):
        node = make_node()
        assert node.checktid(addr(2), tid(9), None) is CheckTidStatus.INIT

    def test_gc_when_otid_gone(self):
        node = make_node()
        t1, t2 = tid(1), tid(2)
        node.add(addr(2), block(1), t2, None, 0)
        assert node.checktid(addr(2), t2, t1) is CheckTidStatus.GC

    def test_nochange_when_both_present(self):
        node = make_node()
        t1, t2 = tid(1), tid(2)
        node.add(addr(2), block(1), t1, None, 0)
        node.add(addr(2), block(1), t2, t1, 0)
        assert node.checktid(addr(2), t2, t1) is CheckTidStatus.NOCHANGE

    def test_nochange_with_no_otid(self):
        node = make_node()
        t1 = tid(1)
        node.add(addr(2), block(1), t1, None, 0)
        assert node.checktid(addr(2), t1, None) is CheckTidStatus.NOCHANGE


class TestMetadata:
    def test_metadata_grows_with_tids(self):
        node = make_node()
        base = node.metadata_bytes()
        node.swap(addr(0), block(1), tid(1))
        assert node.metadata_bytes() > base

    def test_quiescent_overhead_is_small(self):
        """§6.5: ~10 bytes per block (1% of a 1KB block) quiescent."""
        node = make_node()
        for s in range(20):
            node.read(addr(0, stripe=s))
        per_block = node.metadata_bytes() / node.block_count()
        assert per_block <= 10


class TestPayloadLength:
    """A payload must be exactly one block: a short one was stored as a
    short block by ``swap`` and broadcast over the whole block by
    ``add``."""

    def test_short_swap_rejected(self):
        node = make_node()
        with pytest.raises(ValueError, match=r"3 bytes, block size is 32"):
            node.swap(addr(0), np.ones(3, dtype=np.uint8), tid(1))
        state = node.peek(addr(0))
        assert state.block.shape == (BS,) and not state.recentlist

    def test_short_add_rejected_and_block_untouched(self):
        node = make_node()
        with pytest.raises(ValueError, match=r"1 bytes, block size is 32"):
            node.add(addr(2), np.ones(1, dtype=np.uint8), tid(1), None, 0)
        assert not node.peek(addr(2)).block.any()

    def test_long_reconstruct_rejected(self):
        node = make_node()
        with pytest.raises(ValueError, match=r"64 bytes, block size is 32"):
            node.reconstruct(addr(0), frozenset({0, 1}), np.ones(64, np.uint8))
        assert node.peek(addr(0)).opmode is OpMode.NORM

    def test_error_names_the_address(self):
        node = make_node()
        with pytest.raises(ValueError, match="vol/s0/b0"):
            node.handle("swap", {addr(0): (None, (block(1)[:5], tid(1)))})


class TestSwapBuffer:
    def test_swap_overwrites_the_stored_buffer(self):
        node = make_node()
        node.swap(addr(0), block(1), tid(1))
        stored = node.peek(addr(0)).block
        old = node.swap(addr(0), block(2), tid(2)).block
        assert node.peek(addr(0)).block is stored
        assert stored[0] == 2
        # The answer is a copy, not a view of the live block.
        assert old[0] == 1 and not np.shares_memory(old, stored)


class TestSummedAdd:
    """``add(..., more)``: one delta summing several writes' deltas,
    applied whole after every pair is checked, or not at all."""

    def pairs(self):
        return (tid(1, index=0), None), (tid(2, index=1), None)

    def test_applies_once_and_records_every_tid(self):
        node = make_node()
        (t1, o1), (t2, o2) = self.pairs()
        result = node.add(addr(2), block(0b0110), t1, o1, 0, ((t2, o2),))
        assert result.status is AddStatus.OK
        state = node.peek(addr(2))
        assert state.block[0] == 0b0110
        assert state.recent_tids() == {t1, t2}

    def test_order_when_any_otid_unseen(self):
        node = make_node()
        (t1, _), (t2, _) = self.pairs()
        result = node.add(addr(2), block(1), t1, None, 0, ((t2, tid(9)),))
        assert result.status is AddStatus.ORDER
        assert not node.peek(addr(2)).block.any()
        assert not node.peek(addr(2)).recentlist

    def test_stale_epoch_and_lock_checked_first(self):
        node = make_node()
        (t1, o1), more = self.pairs()
        node.finalize(addr(2), 3)
        assert node.add(addr(2), block(1), t1, o1, 2, (more,)).status is (
            AddStatus.ERROR
        )
        node.trylock(addr(2), LockMode.L1, caller="r")
        assert node.add(addr(2), block(1), t1, o1, 3, (more,)).status is (
            AddStatus.ERROR
        )
        assert not node.peek(addr(2)).block.any()

    def test_full_replay_is_ok_and_does_nothing(self):
        node = make_node()
        (t1, o1), more = self.pairs()
        node.add(addr(2), block(5), t1, o1, 0, (more,))
        again = node.add(addr(2), block(5), t1, o1, 0, (more,))
        assert again.status is AddStatus.OK
        assert node.peek(addr(2)).block[0] == 5
        assert len(node.peek(addr(2)).recentlist) == 2

    def test_late_duplicate_after_fallback_add_refused(self):
        """The writer fell back to a per-block add for the first write;
        the sum arriving late must not apply that delta a second time."""
        node = make_node()
        (t1, o1), (t2, o2) = self.pairs()
        node.add(addr(2), block(0b0100), t1, o1, 0)
        late = node.add(addr(2), block(0b0110), t1, o1, 0, ((t2, o2),))
        assert late.status is AddStatus.ERROR
        state = node.peek(addr(2))
        assert state.block[0] == 0b0100
        assert state.recent_tids() == {t1}
