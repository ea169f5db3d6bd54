"""Content fingerprints: sealed at every mutation, durable, probe-able."""

from __future__ import annotations

import hashlib
import re
import tracemalloc

import numpy as np

from repro.core.cluster import Cluster
from repro.erasure.rs import ReedSolomonCode
from repro.erasure.striping import StripeLayout
from repro.ids import BlockAddr, Tid
from repro.net.wire import decode_record, encode_record
from repro.storage import node as node_module, state as state_module
from repro.storage.node import StorageNode, VolumeMeta
from repro.storage.state import (
    BlockState,
    OpMode,
    content_fingerprint,
    zero_fingerprint,
)
from repro.storage.wal import WalStore

BS = 32


def make_node(slot=0, fresh=False):
    meta = VolumeMeta(
        code=ReedSolomonCode(2, 4),
        layout=StripeLayout(2, 4),
        block_size=BS,
    )
    return StorageNode(f"s{slot}", slot, {"vol": meta}, fresh=fresh, seed=slot)


def addr(index, stripe=0):
    return BlockAddr("vol", stripe, index)


def tid(seq, index=0, client="c"):
    return Tid(seq, index, client)


def block(fill):
    return np.full(BS, fill, dtype=np.uint8)


class TestContentFingerprint:
    def test_digest_is_sha256_128_of_the_bytes(self):
        data = np.arange(256, dtype=np.uint8)
        for view in (data, data[::2]):  # contiguous, then strided
            expected = hashlib.sha256(view.tobytes()).digest()[:16].hex()
            assert content_fingerprint(view) == expected

    def test_one_bit_flip_changes_the_digest(self):
        rng = np.random.default_rng(48)
        for size in (1024, 4096, 8192, 65536):
            data = rng.integers(0, 256, size, dtype=np.uint8)
            clean = content_fingerprint(data)
            digests = {clean}
            for pos in (0, size // 2, size - 1):
                damaged = data.copy()
                damaged[pos] ^= 1
                digests.add(content_fingerprint(damaged))
            assert len(digests) == 4
            for digest in digests:
                assert re.fullmatch("[0-9a-f]{32}", digest)

    def test_contiguous_block_is_hashed_without_a_copy(self):
        data = np.ones(1 << 20, dtype=np.uint8)
        tracemalloc.start()
        try:
            content_fingerprint(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestNodeMaintainsFingerprints:
    def test_original_zero_block_is_fingerprinted(self):
        node = make_node()
        st = node.peek(addr(0))
        assert st.fingerprint == content_fingerprint(st.block)

    def test_zero_block_is_sealed_once_per_size(self, monkeypatch):
        real = state_module.content_fingerprint
        calls = []

        def counting(block):
            calls.append(block.size)
            return real(block)

        for module in (state_module, node_module):
            monkeypatch.setattr(module, "content_fingerprint", counting)
        zero_fingerprint.cache_clear()
        first, second = make_node(0), make_node(1)
        a, b = first.peek(addr(0)), second.peek(addr(1))
        assert calls == [BS]
        assert a.fingerprint == b.fingerprint == real(a.block)
        # The slots still own separate, writable blocks.
        assert a.block is not b.block and a.block.flags.writeable

    def test_init_garbage_has_no_fingerprint(self):
        node = make_node(fresh=True)
        assert node.peek(addr(0)).fingerprint is None
        fp = node.fingerprint(addr(0))
        assert fp.stored is None  # garbage: unverifiable, not corrupt
        assert fp.opmode is OpMode.INIT

    def test_swap_reseals(self):
        node = make_node()
        node.swap(addr(0), block(7), tid(1))
        st = node.peek(addr(0))
        assert st.fingerprint == content_fingerprint(block(7))

    def test_add_reseals(self):
        node = make_node()
        before = node.peek(addr(2)).fingerprint
        node.add(addr(2), block(3), tid(1), None, 0)
        st = node.peek(addr(2))
        assert st.fingerprint != before
        assert st.fingerprint == content_fingerprint(st.block)

    def test_fingerprint_rpc_matches_until_tampered(self):
        node = make_node()
        node.swap(addr(0), block(9), tid(1))
        fp = node.fingerprint(addr(0))
        assert fp.stored == fp.live
        assert fp.pending  # the swap's tid is still in the recentlist
        # Tamper with the medium behind the fingerprint's back.
        st = node.peek(addr(0))
        st.block = st.block.copy()
        st.block[0] ^= 0xFF
        fp = node.fingerprint(addr(0))
        assert fp.stored != fp.live

    def test_snapshot_carries_fingerprint(self):
        node = make_node()
        node.swap(addr(0), block(5), tid(1))
        snap = node.get_state(addr(0))
        assert snap.fingerprint == content_fingerprint(block(5))


class TestDurability:
    def test_record_roundtrip_preserves_fingerprint(self):
        state = BlockState(
            block=block(4), fingerprint=content_fingerprint(block(4))
        )
        _, back = decode_record(encode_record(addr(1), state))
        assert back.fingerprint == state.fingerprint

    def test_legacy_record_without_fingerprint(self):
        # An unsealed slot (INIT garbage) is written without a digest and
        # must replay unverifiable, not with a digest of its bytes.
        record = encode_record(addr(1), BlockState(block=block(4)))
        _, back = decode_record(record)
        assert back.fingerprint is None

    def test_media_flip_leaves_stale_fingerprint_after_restart(self):
        """A silent WAL bit flip replays clean — and the restored block
        no longer matches its sealed digest, which is the whole point:
        the damage is detectable without any parity traffic."""
        cluster = Cluster(
            k=2, n=4, block_size=BS,
            store_factory=lambda slot: WalStore(tag=f"slot{slot}"),
        )
        vol = cluster.client("writer")
        for b in range(4):
            vol.write_block(b, bytes([b + 1]))
        slot = cluster.layout.locate(0).node
        cluster.stores[slot].sync()
        cluster.crash_storage(slot, policy="restart", media_force="flip")
        report = cluster.restart_storage(slot)
        assert report.clean  # the flip re-seals the CRC: silent
        node = cluster.node_for_slot(slot)
        stale = [
            a
            for a in node.addresses()
            if node.peek(a).fingerprint is not None
            and content_fingerprint(node.peek(a).block)
            != node.peek(a).fingerprint
        ]
        assert len(stale) == 1  # exactly the one forced flip
