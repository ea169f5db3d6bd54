"""Persistence backends and the §3.11 deferred write-back optimization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cluster import Cluster
from repro.ids import BlockAddr
from repro.storage.state import BlockState
from repro.storage.store import SimulatedDiskStore

from tests.storage.test_node_ops import BS, addr, block, make_node, tid


def state(fill: int) -> BlockState:
    return BlockState(block=block(fill))


class TestSimulatedDiskStore:
    def test_write_through_counts_every_write(self):
        store = SimulatedDiskStore(write_back=False)
        for i in range(4):
            store.persist(addr(2), state(i), redundant=True)
        assert store.device_writes == 4

    def test_write_back_buffers_redundant_blocks(self):
        store = SimulatedDiskStore(write_back=True)
        for i in range(4):
            store.persist(addr(2, stripe=0), state(i), redundant=True)
        assert store.device_writes == 0
        assert store.dirty_count() == 1

    def test_data_blocks_always_write_through(self):
        store = SimulatedDiskStore(write_back=True)
        store.persist(addr(0), state(1), redundant=False)
        assert store.device_writes == 1

    def test_load_sees_buffered_image(self):
        store = SimulatedDiskStore(write_back=True)
        store.persist(addr(2), state(7), redundant=True)
        assert store.device_image(addr(2)) is None  # device untouched
        store.sync()
        assert store.device_image(addr(2))[0] == 7  # the buffer held it

    def test_observe_stripe_flushes_past_window(self):
        store = SimulatedDiskStore(write_back=True, defer_window=2)
        store.persist(addr(2, stripe=0), state(1), redundant=True)
        store.observe_stripe(1)
        assert store.device_writes == 0  # still inside the window
        store.observe_stripe(2)
        assert store.device_writes == 1
        assert store.device_image(addr(2, stripe=0))[0] == 1

    def test_sync_flushes_everything(self):
        store = SimulatedDiskStore(write_back=True)
        store.persist(addr(2, stripe=0), state(1), redundant=True)
        store.persist(addr(3, stripe=5), state(2), redundant=True)
        store.sync()
        assert store.device_writes == 2
        assert store.dirty_count() == 0

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            SimulatedDiskStore(defer_window=0)


class TestNodeIntegration:
    def test_swap_persists_to_store(self):
        store = SimulatedDiskStore(write_back=False)
        node = make_node()
        node.store = store
        node.swap(addr(0), block(9), tid(1))
        assert store.device_image(addr(0))[0] == 9
        assert store.device_writes == 1

    def test_add_to_redundant_block_is_buffered(self):
        store = SimulatedDiskStore(write_back=True)
        node = make_node()
        node.store = store
        node.add(addr(2), block(1), tid(1), None, 0)
        assert store.device_writes == 0
        assert store.dirty_count() == 1

    def test_sequential_writes_coalesce_redundant_device_writes(self):
        """The §3.11 payoff measured end to end: writing every data
        block of many stripes sequentially, a write-back store does ~1
        device write per redundant block instead of k."""

        def run(write_back: bool) -> int:
            cluster = Cluster(
                k=4,
                n=6,
                block_size=32,
                store_factory=lambda slot: SimulatedDiskStore(
                    write_back=write_back, defer_window=2
                ),
            )
            vol = cluster.client("c")
            stripes = 12
            for b in range(stripes * 4):
                vol.write_block(b, bytes([b % 256]))
            for store in cluster.stores.values():
                store.sync()
            total_data_writes = stripes * 4
            total = sum(s.device_writes for s in cluster.stores.values())
            return total - total_data_writes  # redundant-block writes

        through = run(write_back=False)
        back = run(write_back=True)
        stripes, k, p = 12, 4, 2
        assert through == stripes * k * p  # every add hits the device
        assert back <= stripes * p * 2  # ~one per redundant block
        assert back >= stripes * p  # but at least one each

    def test_write_back_images_correct_after_sync(self):
        cluster = Cluster(
            k=2,
            n=4,
            block_size=32,
            store_factory=lambda slot: SimulatedDiskStore(write_back=True),
        )
        vol = cluster.client("c")
        for b in range(8):
            vol.write_block(b, bytes([b + 1]))
        for store in cluster.stores.values():
            store.sync()
        # Device images must match the live node state everywhere.
        for stripe in range(4):
            for j in range(4):
                slot = cluster.layout.node_of_stripe_index(stripe, j)
                node = cluster.node_for_slot(slot)
                live = node.peek(BlockAddr("vol0", stripe, j)).block
                device = cluster.stores[slot].device_image(
                    BlockAddr("vol0", stripe, j)
                )
                assert device is not None
                assert np.array_equal(live, device)
