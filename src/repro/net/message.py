"""Message bookkeeping: the call envelope, payload-size estimation and
traffic counters.

The paper's Fig. 1 compares protocols by *message counts* and *bytes on
the wire*; to validate those columns against the real protocol we
instrument every RPC with an estimated wire size.  Estimation rules:
block payloads dominate (numpy arrays count their exact byte length),
everything else counts a small fixed header-ish size.  Only an RPC's
operation arguments are sized — its :class:`Envelope` header never is.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

#: Assumed fixed cost of scalar arguments / headers, in bytes.
SCALAR_BYTES = 8


@dataclass(frozen=True)
class Envelope:
    """What an RPC carries besides its operation and arguments.

    Built once by the caller and handed unchanged (or narrowed with
    :func:`dataclasses.replace`) through every layer as the keyword-only
    ``env=`` argument of ``Transport.call`` / ``broadcast`` and
    ``RpcHandler.handle``.  Layers read it; none strips it, and it is
    never part of the sized payload, so byte accounting, wire frames and
    seeded digests are the same whatever the header holds.

    * ``kind`` — the logical operation the RPC serves (write, read,
      recovery_phase1, gc, ...), the wire-accounting label;
    * ``trace`` — ``(trace_id, span_id, parent_span)`` of the caller's
      span, echoed by traced nodes;
    * ``gen`` — the caller's placement generation for the stripe,
      checked by storage nodes on elastic clusters;
    * ``timeout`` — the round trip's deadline in seconds (None waits
      indefinitely, the original fail-stop model).
    """

    kind: str | None = None
    trace: tuple | None = None
    gen: int | None = None
    timeout: float | None = None


#: The header of a call that sets nothing (tests, baselines, raw pokes).
NO_ENVELOPE = Envelope()


def estimate_size(obj: object) -> int:
    """Rough wire size of an RPC argument or result, in bytes."""
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj)
    if isinstance(obj, (int, float, bool)):
        return SCALAR_BYTES
    if isinstance(obj, dict):
        return sum(estimate_size(k) + estimate_size(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(estimate_size(item) for item in obj)
    if is_dataclass(obj) and not isinstance(obj, type):
        return sum(estimate_size(getattr(obj, f.name)) for f in fields(obj))
    return SCALAR_BYTES


@dataclass
class TrafficStats:
    """Thread-safe counters of RPC traffic, grouped by operation name.

    A request/response pair counts as two messages (the convention the
    paper's Fig. 1 uses: ``# msgs for read = 2`` means one round trip).
    """

    messages: Counter = field(default_factory=Counter)
    request_bytes: Counter = field(default_factory=Counter)
    response_bytes: Counter = field(default_factory=Counter)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record_request(self, op: str, size: int) -> None:
        with self._lock:
            self.messages[op] += 1
            self.request_bytes[op] += size

    def record_response(self, op: str, size: int) -> None:
        with self._lock:
            self.messages[op] += 1
            self.response_bytes[op] += size

    # -- aggregate views ---------------------------------------------------

    @property
    def total_messages(self) -> int:
        with self._lock:
            return sum(self.messages.values())

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return sum(self.request_bytes.values()) + sum(
                self.response_bytes.values()
            )

    def snapshot(self) -> dict[str, dict[str, int]]:
        """Immutable copy of all counters (for before/after deltas)."""
        with self._lock:
            return {
                "messages": dict(self.messages),
                "request_bytes": dict(self.request_bytes),
                "response_bytes": dict(self.response_bytes),
            }

    def reset(self) -> None:
        with self._lock:
            self.messages.clear()
            self.request_bytes.clear()
            self.response_bytes.clear()


def diff_snapshots(
    before: dict[str, dict[str, int]], after: dict[str, dict[str, int]]
) -> dict[str, dict[str, int]]:
    """Per-op difference of two :meth:`TrafficStats.snapshot` results."""
    out: dict[str, dict[str, int]] = {}
    for section in ("messages", "request_bytes", "response_bytes"):
        delta = {}
        for op, value in after.get(section, {}).items():
            change = value - before.get(section, {}).get(op, 0)
            if change:
                delta[op] = change
        out[section] = delta
    return out
