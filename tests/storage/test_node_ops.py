"""Storage-node operations: the state machine of Figs. 4-5."""

from __future__ import annotations

import numpy as np
import pytest

from repro.erasure.rs import ReedSolomonCode
from repro.erasure.striping import StripeLayout
from repro.errors import UnknownOperationError
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


class TestDispatch:
    def test_handle_routes_operations(self):
        node = make_node()
        result = node.handle("read", addr(0))
        assert result.lmode is LockMode.UNL

    def test_unknown_operation_rejected(self):
        node = make_node()
        with pytest.raises(UnknownOperationError):
            node.handle("format_disk")

    def test_unknown_volume_rejected(self):
        node = make_node()
        with pytest.raises(UnknownOperationError):
            node.handle("read", BlockAddr("nope", 0, 0))

    def test_op_counts_tracked(self):
        node = make_node()
        node.metrics = MetricsRegistry()
        node.handle("read", addr(0))
        node.handle("read", addr(0))
        assert node.metrics.sum_counter("node_ops_total", op="read") == 2


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
