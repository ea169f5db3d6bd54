"""Crash-scoped flight recorder: last-N trace events + a metrics dump.

When a soak invariant check fails, or a restart degrades a node to
INIT, rerunning under print statements is exactly what the ISSUE's
motivation complains about.  The flight recorder captures the black box
instead: the tail of the shared trace ring, a full metrics snapshot,
and the caller's context, serialized to one JSON file that
``repro trace-dump --flight`` can replay later.

Dumping *snapshots* the tracer (it never drains), so a post-mortem dump
does not perturb assertions the harness still wants to run on the same
events.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

from repro.obs.metrics import MetricsRegistry, NullRegistry
from repro.obs.trace import TraceEvent, Tracer

FORMAT_VERSION = 1


def _jsonable(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


def event_to_dict(event: TraceEvent) -> dict:
    return {
        "timestamp": event.timestamp,
        "source": event.source,
        "kind": event.kind,
        "detail": _jsonable(event.detail),
    }


@dataclass
class FlightRecorder:
    """Bundles a shared tracer + registry behind one ``dump`` call."""

    tracer: Tracer
    registry: MetricsRegistry | NullRegistry
    #: How many trailing trace events a dump keeps.
    capacity: int = 512

    def dump(
        self,
        path: str,
        reason: str,
        extra: dict | None = None,
    ) -> str:
        """Write the black box to ``path`` (parent dirs are created);
        returns the path for log lines."""
        events = self.tracer.events()[-self.capacity:]
        payload = {
            "format": FORMAT_VERSION,
            "reason": reason,
            "captured_at": time.time(),
            "dropped_trace_events": getattr(self.tracer, "dropped", 0),
            "events": [event_to_dict(e) for e in events],
            "metrics": self.registry.snapshot(),
            "extra": _jsonable(extra or {}),
        }
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path


def load_flight(path: str) -> dict:
    """Read a flight-recorder file back, validating its shape."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if data.get("format") != FORMAT_VERSION:
        raise ValueError(f"unsupported flight-recorder format in {path!r}")
    for key in ("reason", "events", "metrics"):
        if key not in data:
            raise ValueError(f"flight-recorder file {path!r} lacks {key!r}")
    return data


def flight_events(data: dict) -> list[TraceEvent]:
    """Rehydrate dumped events into :class:`TraceEvent` objects (detail
    values survive as their JSON forms)."""
    return [
        TraceEvent(
            timestamp=row["timestamp"],
            source=row["source"],
            kind=row["kind"],
            detail=dict(row.get("detail", {})),
        )
        for row in data["events"]
    ]
