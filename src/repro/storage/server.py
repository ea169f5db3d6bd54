"""Instrumented wrapper around a storage node.

Records per-operation service times so the discrete-event simulator can
be calibrated from the real implementation — the methodology of
Section 5.2 ("We tuned our simulator using the real system to determine
values for ... latencies for various operations on the storage node").
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field

from repro.net.message import NO_ENVELOPE, Envelope
from repro.net.transport import RpcHandler
from repro.storage.node import StorageNode


@dataclass
class ServiceTimes:
    """Aggregated per-op service-time statistics, in seconds."""

    count: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    total: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    worst: dict[str, float] = field(default_factory=lambda: defaultdict(float))

    def record(self, op: str, elapsed: float) -> None:
        self.count[op] += 1
        self.total[op] += elapsed
        if elapsed > self.worst[op]:
            self.worst[op] = elapsed

    def mean(self, op: str) -> float:
        n = self.count.get(op, 0)
        return self.total[op] / n if n else 0.0

    def as_dict(self) -> dict[str, dict[str, float]]:
        return {
            op: {
                "count": self.count[op],
                "mean": self.mean(op),
                "worst": self.worst[op],
            }
            for op in self.count
        }


class InstrumentedServer(RpcHandler):
    """Delegates to a :class:`StorageNode`, timing every operation."""

    def __init__(self, node: StorageNode):
        self.node = node
        self.times = ServiceTimes()

    @property
    def node_id(self) -> str:
        return self.node.node_id

    def handle(
        self, op: str, *args: object, env: Envelope = NO_ENVELOPE, **kwargs: object
    ) -> object:
        start = time.perf_counter()
        try:
            return self.node.handle(op, *args, env=env, **kwargs)
        finally:
            self.times.record(op, time.perf_counter() - start)
