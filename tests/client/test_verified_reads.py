"""Self-verifying reads: fingerprint checks on the read path.

Wire damage (response mangled in flight) must be retried without
penalising the node; media damage (the node's copy is bad) must never
reach the caller — the value comes from a degraded decode that excludes
the liar, repair is triggered, and the node is quarantined.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.client.config import ClientConfig
from repro.client.health import CircuitState
from repro.core.cluster import Cluster
from repro.ids import BlockAddr
from repro.net.chaos import FaultPlan, FaultRule
from repro.storage.state import content_fingerprint


def verified_config(**kwargs):
    return ClientConfig(verified_reads=True, degraded_reads=True, **kwargs)


def media_corrupt(cluster, stripe, index):
    """Damage a block at rest: content changes, sealed digest does not."""
    slot = cluster.layout.node_of_stripe_index(stripe, index)
    node = cluster.node_for_slot(slot)
    state = node.peek(BlockAddr("vol0", stripe, index))
    state.block = state.block.copy()
    state.block[0] ^= 0xFF
    return cluster.directory.node_id(slot)


def fingerprints_clean(cluster, stripe, n=4):
    for j in range(n):
        slot = cluster.layout.node_of_stripe_index(stripe, j)
        st = cluster.node_for_slot(slot).peek(BlockAddr("vol0", stripe, j))
        if st.fingerprint is None:
            return False
        if content_fingerprint(st.block) != st.fingerprint:
            return False
    return True


@pytest.fixture
def seeded():
    cluster = Cluster(k=2, n=4, block_size=64)
    vol = cluster.client("seed", verified_config())
    for b in range(8):
        vol.write_block(b, bytes([b + 1]))
    vol.collect_garbage()
    vol.collect_garbage()
    return cluster, vol


class TestWireCorruption:
    def test_retried_and_never_served(self):
        plan = FaultPlan(
            [FaultRule(op="read", corrupt=0.3)], seed=3
        )
        cluster = Cluster(k=2, n=4, block_size=64, chaos_plan=plan)
        vol = cluster.client("reader", verified_config())
        for b in range(8):
            vol.write_block(b, bytes([b + 1]))
        for _ in range(4):
            for b in range(8):
                assert vol.read_block(b)[:1] == bytes([b + 1])
        stats = vol.protocol.stats
        injected = cluster.chaos.ledger_counts().get("corrupt", 0)
        assert injected > 0  # the plan actually fired
        wire = [
            c for c in vol.protocol.corruption_log if c.source == "wire"
        ]
        assert len(wire) == injected  # ledger reconciles 1:1
        assert stats.corruptions_detected == injected
        assert stats.verified_reads > 0

    def test_lost_probe_is_asked_again_not_served_unverified(self):
        """The reader's first read comes back damaged and the fingerprint
        probe that would catch it is lost: the probe is re-sent, the
        damage is detected, and only the re-read block is served."""
        plan = FaultPlan(
            [
                FaultRule(src="reader", op="read", corrupt=1.0, before_op=1),
                FaultRule(
                    src="reader", op="fingerprint", drop=1.0, before_op=2
                ),
            ],
            seed=3,
        )
        cluster = Cluster(k=2, n=4, block_size=64, chaos_plan=plan)
        cluster.client("writer", verified_config()).write_block(0, b"\x07")
        vol = cluster.client("reader", verified_config(rpc_timeout=0.05))
        assert vol.read_block(0)[:1] == b"\x07"
        assert cluster.chaos.ledger_counts() == {"corrupt": 1, "drop": 1}
        wire = [c for c in vol.protocol.corruption_log if c.source == "wire"]
        assert len(wire) == 1
        assert vol.protocol.stats.verified_reads == 1

    def test_does_not_trip_the_breaker(self):
        """In-flight damage says nothing about the node's disk."""
        plan = FaultPlan([FaultRule(op="read", corrupt=0.3)], seed=3)
        cluster = Cluster(k=2, n=4, block_size=64, chaos_plan=plan)
        vol = cluster.client("reader", verified_config())
        vol.write_block(0, b"x")
        for _ in range(20):
            vol.read_block(0)
        assert cluster.chaos.ledger_counts().get("corrupt", 0) > 0
        assert cluster.health.breaker_opens == 0


class TestMediaCorruption:
    def test_degraded_value_repair_and_quarantine(self, seeded):
        cluster, vol = seeded
        loc = cluster.layout.locate(0)
        media_corrupt(cluster, loc.stripe, loc.data_index)
        assert vol.read_block(0)[:1] == b"\x01"  # never the corrupt byte
        log = vol.protocol.corruption_log
        assert any(c.source == "media" for c in log)
        assert cluster.health.breaker_opens >= 1  # one strike, no threshold
        # Repair ran: content and digests agree again end to end.
        assert cluster.stripe_consistent(loc.stripe)
        assert fingerprints_clean(cluster, loc.stripe)

    def test_corrupt_value_served_when_verification_off(self, seeded):
        """The control: without verified reads the lie goes through —
        exactly the hazard the feature exists to close."""
        cluster, _ = seeded
        plain = cluster.client("unverified", ClientConfig())
        loc = cluster.layout.locate(1)
        media_corrupt(cluster, loc.stripe, loc.data_index)
        value = plain.read_block(1)
        assert value[:1] != bytes([2])
        assert plain.protocol.stats.verified_reads == 0

    def test_degraded_read_excludes_the_liar(self, seeded):
        """A fingerprint-mismatching snapshot must not poison a k-of-n
        reconstruct even when the read is already degraded."""
        cluster, vol = seeded
        loc = cluster.layout.locate(2)
        # Corrupt the data block *and* crash nothing: the degraded
        # decode must pick clean peers on its own.
        media_corrupt(cluster, loc.stripe, loc.data_index)
        value = vol.protocol.read_degraded(loc.stripe, loc.data_index)
        assert value is not None
        assert bytes(value[:1]) == b"\x03"

    def test_recovery_excludes_fingerprint_liars(self, seeded):
        """The recovery liar filter: a metadata-clean node whose bytes
        fail their digest is folded into the exclude set, so repair
        decodes around it instead of *from* it."""
        cluster, vol = seeded
        media_corrupt(cluster, 1, 3)  # redundant position
        vol.protocol._start_recovery(1)
        assert cluster.stripe_consistent(1)
        assert fingerprints_clean(cluster, 1)
        assert any(
            c.source == "media" and c.stripe == 1 and c.index == 3
            for c in vol.protocol.corruption_log
        )

    def test_quarantined_node_heals_through_repair(self, seeded):
        """Corruption opens the circuit; the repair's own writes close
        it via the half-open probe path — no manual reset needed."""
        cluster, vol = seeded
        loc = cluster.layout.locate(0)
        node_id = media_corrupt(cluster, loc.stripe, loc.data_index)
        vol.read_block(0)  # detect + repair + quarantine
        for b in range(8):  # traffic admits half-open probes
            vol.read_block(b)
        assert cluster.health.state(node_id) is CircuitState.CLOSED
