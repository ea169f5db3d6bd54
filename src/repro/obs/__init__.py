"""Unified observability: metrics registry, causal tracing, flight
recorder (see docs/OBSERVABILITY.md for the catalogue and formats).

The usual entry point is :class:`Observability`, a bundle wired into a
cluster at construction::

    obs = Observability.create()
    cluster = Cluster(k=2, n=4, observability=obs)
    ...
    print(to_prometheus(obs.registry.snapshot()))
    tree = build_span_tree(obs.tracer.events(), some_trace_id)

Everything defaults to disabled (:data:`NULL_REGISTRY` /
``NULL_TRACER``) at a cost of one attribute check per hot-path site.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.obs.export import (
    load_snapshot,
    parse_exposition,
    parse_sample_line,
    snapshot_to_json,
    to_prometheus,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
)
from repro.obs.recorder import FlightRecorder, flight_events, load_flight
from repro.obs.trace import (
    CriticalPath,
    Span,
    TraceContext,
    TraceIdAllocator,
    Tracer,
    build_span_tree,
    critical_path,
    render_span_tree,
    trace_ids,
)

__all__ = [
    "Counter",
    "CriticalPath",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "Observability",
    "Span",
    "TraceContext",
    "TraceIdAllocator",
    "build_span_tree",
    "critical_path",
    "flight_events",
    "load_flight",
    "load_snapshot",
    "parse_exposition",
    "parse_sample_line",
    "render_span_tree",
    "snapshot_to_json",
    "to_prometheus",
    "trace_ids",
]


@dataclass
class Observability:
    """One shared sink set: a registry, a source-tagged tracer, and the
    flight recorder bundling both."""

    registry: MetricsRegistry
    tracer: Tracer
    flight: FlightRecorder

    @classmethod
    def create(
        cls,
        trace_capacity: int = 65536,
        histogram_capacity: int = 2048,
        flight_capacity: int = 512,
        clock: Callable[[], float] | None = None,
    ) -> "Observability":
        registry = MetricsRegistry(histogram_capacity=histogram_capacity)
        tracer = Tracer(capacity=trace_capacity, clock=clock)
        flight = FlightRecorder(
            tracer=tracer, registry=registry, capacity=flight_capacity
        )
        return cls(registry=registry, tracer=tracer, flight=flight)
