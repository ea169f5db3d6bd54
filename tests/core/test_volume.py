"""Public block API (§2's application-facing interface)."""

from __future__ import annotations

import time

import pytest

from repro.core.cluster import Cluster
from repro.net.local import DelayModel


class TestBlockApi:
    def test_write_read_roundtrip(self, small_cluster):
        vol = small_cluster.client("c")
        vol.write_block(0, b"hello")
        assert vol.read_block(0)[:5] == b"hello"

    def test_block_is_zero_padded(self, small_cluster):
        vol = small_cluster.client("c")
        vol.write_block(0, b"ab")
        data = vol.read_block(0)
        assert len(data) == vol.block_size
        assert data[2:] == bytes(vol.block_size - 2)

    def test_oversized_write_rejected(self, small_cluster):
        vol = small_cluster.client("c")
        with pytest.raises(ValueError):
            vol.write_block(0, b"x" * (vol.block_size + 1))

    def test_empty_write_allowed(self, small_cluster):
        vol = small_cluster.client("c")
        vol.write_block(3, b"full")
        vol.write_block(3, b"")
        assert vol.read_block(3) == bytes(vol.block_size)

    def test_erasure_code_is_hidden(self, small_cluster):
        """§2: block size and addressing are independent of (k, n)."""
        vol = small_cluster.client("c")
        for logical in range(10):  # spans 5 stripes of k=2
            vol.write_block(logical, bytes([logical]))
        for logical in range(10):
            assert vol.read_block(logical)[:1] == bytes([logical])

    def test_two_clients_share_the_volume(self, small_cluster):
        a = small_cluster.client("a")
        b = small_cluster.client("b")
        a.write_block(0, b"from-a")
        assert b.read_block(0)[:6] == b"from-a"


class TestMultiBlockHelpers:
    def test_write_read_blocks(self, small_cluster):
        vol = small_cluster.client("c")
        vol.write_blocks(4, [b"one", b"two", b"three"])
        assert [d[:5].rstrip(b"\0") for d in vol.read_blocks(4, 3)] == [
            b"one",
            b"two",
            b"three",
        ]

    def test_write_read_bytes_spanning_blocks(self, small_cluster):
        vol = small_cluster.client("c")
        payload = bytes(range(200))  # block_size=64 -> 4 blocks
        used = vol.write_bytes(0, payload)
        assert used == 4
        assert vol.read_bytes(0, 200) == payload

    def test_write_bytes_exact_multiple(self, small_cluster):
        vol = small_cluster.client("c")
        payload = b"z" * 128
        assert vol.write_bytes(0, payload) == 2
        assert vol.read_bytes(0, 128) == payload

    def test_read_zero_bytes(self, small_cluster):
        vol = small_cluster.client("c")
        assert vol.read_bytes(0, 0) == b""

    def test_read_negative_rejected(self, small_cluster):
        vol = small_cluster.client("c")
        with pytest.raises(ValueError):
            vol.read_bytes(0, -1)

    def test_empty_write_bytes_uses_one_block(self, small_cluster):
        vol = small_cluster.client("c")
        assert vol.write_bytes(9, b"") == 1

    def test_write_blocks_spanning_stripes(self):
        cluster = Cluster(k=3, n=5, block_size=64)
        vol = cluster.client("c")
        vol.write_blocks(1, [bytes([i + 1]) for i in range(12)])
        for i in range(12):
            assert vol.read_block(1 + i)[:1] == bytes([i + 1])
        for stripe in range(5):
            assert cluster.stripe_consistent(stripe)

    def test_oversized_block_rejected_before_any_write(self, small_cluster):
        vol = small_cluster.client("c")
        with pytest.raises(ValueError):
            vol.write_blocks(0, [b"ok", b"x" * (vol.block_size + 1)])
        assert vol.read_block(0) == bytes(vol.block_size)

    def test_write_blocks_beats_block_loop_with_latency(self):
        """The §3.11 claim: with real network latency, writing an extent
        as one stripe write multiplies sequential bandwidth over one
        write per block."""

        def run(extent: bool) -> float:
            cluster = Cluster(
                k=3, n=5, block_size=64, delay=DelayModel(latency=2e-3)
            )
            vol = cluster.client("c")
            payload = [b"x" for _ in range(12)]
            start = time.perf_counter()
            if extent:
                vol.write_blocks(0, payload)
            else:
                for logical, data in enumerate(payload):
                    vol.write_block(logical, data)
            return time.perf_counter() - start

        loop = run(extent=False)
        extent = run(extent=True)
        assert extent < loop * 0.55  # at least ~2x speedup


class TestVolumeMaintenanceSurface:
    def test_recover_stripe_exposed(self, small_cluster):
        vol = small_cluster.client("c")
        vol.write_block(0, b"r")
        assert vol.recover_stripe(0) is True
        assert small_cluster.stripe_consistent(0)

    def test_client_id_and_block_size(self, small_cluster):
        vol = small_cluster.client("me")
        assert vol.client_id == "me"
        assert vol.block_size == 64
