"""The crash-scoped flight recorder: dump, load, replay."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    FlightRecorder,
    MetricsRegistry,
    Observability,
    build_span_tree,
    flight_events,
    load_flight,
)
from repro.obs.recorder import FORMAT_VERSION
from repro.obs.trace import Tracer


def make_sinks(capacity: int = 512):
    tracer = Tracer(clock=lambda: 1.0)
    registry = MetricsRegistry()
    return tracer, registry, FlightRecorder(tracer, registry, capacity=capacity)


class TestDump:
    def test_round_trip(self, tmp_path):
        tracer, registry, flight = make_sinks()
        registry.counter("rpc_calls_total", op="swap", result="ok").inc(3)
        tracer.emit("c1", "write.begin", trace_id="c1:w1", span="c1:w1")
        tracer.emit("c1", "write.end", trace_id="c1:w1", span="c1:w1")

        path = tmp_path / "deep" / "flight.json"  # parent dir is created
        written = flight.dump(str(path), reason="test crash", extra={"seed": 7})
        assert written == str(path)

        data = load_flight(str(path))
        assert data["format"] == FORMAT_VERSION
        assert data["reason"] == "test crash"
        assert data["extra"] == {"seed": 7}
        assert data["dropped_trace_events"] == 0

        events = flight_events(data)
        assert [e.kind for e in events] == ["write.begin", "write.end"]
        assert events[0].source == "c1"
        assert events[0].timestamp == 1.0
        tree = build_span_tree(events, "c1:w1")
        assert tree is not None and tree.span_id == "c1:w1"

        counters = data["metrics"]["counters"]
        assert counters[0]["name"] == "rpc_calls_total"
        assert counters[0]["value"] == 3

    def test_dump_keeps_last_capacity_events(self, tmp_path):
        tracer, _registry, flight = make_sinks(capacity=4)
        for i in range(10):
            tracer.emit("c", "tick", i=i)
        data = load_flight(flight.dump(str(tmp_path / "f.json"), reason="r"))
        assert [e.detail["i"] for e in flight_events(data)] == [6, 7, 8, 9]

    def test_dump_snapshots_without_draining(self, tmp_path):
        tracer, _registry, flight = make_sinks()
        tracer.emit("c", "tick")
        flight.dump(str(tmp_path / "f.json"), reason="r")
        assert tracer.count() == 1  # the ring survives the dump

    def test_dump_records_ring_overflow(self, tmp_path):
        tracer, _registry, flight = make_sinks()
        small = Tracer(capacity=2)
        flight.tracer = small
        for i in range(5):
            small.emit("c", "tick", i=i)
        data = load_flight(flight.dump(str(tmp_path / "f.json"), reason="r"))
        assert data["dropped_trace_events"] == 3

    def test_load_flight_rejects_wrong_shape(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": FORMAT_VERSION}))
        with pytest.raises(ValueError):
            load_flight(str(path))


class TestObservabilityBundle:
    def test_create_wires_shared_sinks(self):
        obs = Observability.create(
            trace_capacity=128, histogram_capacity=16, flight_capacity=8
        )
        assert obs.tracer.capacity == 128
        assert obs.registry.histogram_capacity == 16
        assert obs.flight.tracer is obs.tracer
        assert obs.flight.registry is obs.registry
        assert obs.flight.capacity == 8
