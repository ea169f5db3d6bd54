"""Structured tracing and causal trace propagation.

Production storage systems need to answer "what did the protocol do?"
without a debugger: which writes hit the ORDER path, when recoveries
started and why, how long each phase took.  :class:`Tracer` is a
bounded, thread-safe, in-memory event ring that protocol components
emit into; tests use it to assert phase sequences, and operators can
drain it to their logging system.

Tracing is off by default (a no-op null tracer costs one attribute
check per event) and enabled per client::

    tracer = Tracer(capacity=10_000)
    client = cluster.protocol_client("c")
    client.tracer = tracer
    ...
    for event in tracer.drain():
        print(event)

The protocol already piggybacks ``otid`` on adds to order writes; this
module piggybacks a *trace context* the same way, so a single client
write is reconstructable — from drained :class:`Tracer` events alone —
as a span tree: the client op at the root, the data-node swap beneath
it, and every redundant-node add beneath the swap.

Ids are **deterministic**: a client derives them from its own id and a
private counter (never a clock, never an RNG), so traced soak runs stay
reproducible and two runs of the same seeded workload allocate the same
ids.

Wire format: the ``trace`` field of the call's
:class:`~repro.net.message.Envelope`, carrying
``(trace_id, span_id, parent_span)``.  Transports hand the envelope
through unsized; :meth:`StorageNode.handle` reads the field and
emits a ``node.<op>`` event tagged with the received span — the node
side of the span is the event itself (storage ops are sub-millisecond;
begin/end pairs would double the ring traffic for no decision value).
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One protocol event."""

    timestamp: float
    source: str  # emitting component, e.g. client id
    kind: str  # e.g. "write.order_retry", "recovery.phase1"
    detail: dict = field(default_factory=dict)

    def __str__(self) -> str:
        extras = " ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        return f"[{self.timestamp:.6f}] {self.source} {self.kind} {extras}".rstrip()


class Tracer:
    """Bounded ring buffer of :class:`TraceEvent`."""

    #: Hot paths branch on this (``if tracer.enabled: ...``) instead of
    #: comparing against the NULL_TRACER singleton.
    enabled = True

    def __init__(self, capacity: int = 4096, clock: Callable[[], float] | None = None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._clock = clock or time.monotonic
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.dropped = 0

    def emit(self, source: str, kind: str, **detail: object) -> None:
        event = TraceEvent(
            timestamp=self._clock(), source=source, kind=kind, detail=detail
        )
        with self._lock:
            if len(self._events) == self.capacity:
                self.dropped += 1
            self._events.append(event)

    def events(self, kind_prefix: str | None = None) -> list[TraceEvent]:
        """Snapshot, optionally filtered by kind prefix."""
        with self._lock:
            snapshot = list(self._events)
        if kind_prefix is None:
            return snapshot
        return [e for e in snapshot if e.kind.startswith(kind_prefix)]

    def drain(self) -> list[TraceEvent]:
        """Return and clear all buffered events; overflow accounting
        (``dropped``) resets with the buffer so each drained batch is
        audited against its own losses."""
        with self._lock:
            snapshot = list(self._events)
            self._events.clear()
            self.dropped = 0
        return snapshot

    def count(self, kind_prefix: str = "") -> int:
        return len(self.events(kind_prefix or None))


class NullTracer:
    """The default no-op tracer (shared singleton).

    Implements the full :class:`Tracer` read surface so code handed a
    disabled tracer can still call ``events``/``drain``/``count``
    without crashing — everything reports empty.
    """

    enabled = False
    capacity = 0
    dropped = 0

    def emit(self, source: str, kind: str, **detail: object) -> None:
        pass

    def events(self, kind_prefix: str | None = None) -> list[TraceEvent]:
        return []

    def drain(self) -> list[TraceEvent]:
        return []

    def count(self, kind_prefix: str = "") -> int:
        return 0


NULL_TRACER = NullTracer()


#: Wire representation: (trace_id, span_id, parent_span).
WireTrace = tuple[str, str, str | None]


@dataclass(frozen=True, slots=True)
class TraceContext:
    """One span's identity within a trace."""

    trace_id: str
    span_id: str
    parent_span: str | None = None

    def wire(self) -> WireTrace:
        return (self.trace_id, self.span_id, self.parent_span)

    def to_detail(self) -> dict[str, str | None]:
        """Detail fields a tracer event should carry for this span."""
        return {
            "trace_id": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_span,
        }


class TraceIdAllocator:
    """Deterministic per-component id source (thread-safe)."""

    def __init__(self, component: str) -> None:
        self.component = component
        self._trace_seq = itertools.count(1)
        self._span_seq = itertools.count(1)
        self._lock = threading.Lock()

    def new_trace(self, op: str) -> TraceContext:
        """A fresh root span, e.g. ``c1:w3`` for client c1's third write."""
        with self._lock:
            n = next(self._trace_seq)
        trace_id = f"{self.component}:{op}{n}"
        return TraceContext(trace_id=trace_id, span_id=trace_id, parent_span=None)

    def child(self, parent: TraceContext) -> TraceContext:
        with self._lock:
            n = next(self._span_seq)
        return TraceContext(
            trace_id=parent.trace_id,
            span_id=f"{self.component}:s{n}",
            parent_span=parent.span_id,
        )


@dataclass
class Span:
    """One reconstructed span: its events plus its children."""

    trace_id: str
    span_id: str
    parent_span: str | None
    events: list[TraceEvent] = field(default_factory=list)
    children: list["Span"] = field(default_factory=list)

    @property
    def kind(self) -> str:
        return self.events[0].kind if self.events else "?"

    @property
    def source(self) -> str:
        return self.events[0].source if self.events else "?"

    def walk(self):
        """Depth-first iterator over this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()


def trace_ids(events: list[TraceEvent]) -> list[str]:
    """Distinct trace ids present in a batch of events, in first-seen
    order (handy for sampling one write out of a soak's firehose)."""
    seen: dict[str, None] = {}
    for event in events:
        tid = event.detail.get("trace_id")
        if isinstance(tid, str):
            seen.setdefault(tid, None)
    return list(seen)


def build_span_tree(events: list[TraceEvent], trace_id: str) -> Span | None:
    """Reassemble one trace's span tree from drained events.

    Events sharing a ``span`` detail collapse into one :class:`Span`;
    parent links come from their ``parent`` detail.  Returns the root
    span (``parent is None`` or parent unknown — a partial trace still
    yields a tree rooted at the earliest orphan), or None when the
    trace id does not appear at all.
    """
    spans: dict[str, Span] = {}
    order: list[str] = []
    for event in events:
        if event.detail.get("trace_id") != trace_id:
            continue
        span_id = event.detail.get("span")
        if not isinstance(span_id, str):
            continue
        span = spans.get(span_id)
        if span is None:
            parent = event.detail.get("parent")
            span = spans[span_id] = Span(
                trace_id=trace_id,
                span_id=span_id,
                parent_span=parent if isinstance(parent, str) else None,
            )
            order.append(span_id)
        span.events.append(event)
    if not spans:
        return None
    roots: list[Span] = []
    for span_id in order:
        span = spans[span_id]
        parent = spans.get(span.parent_span) if span.parent_span else None
        if parent is None or parent is span:
            roots.append(span)
        else:
            parent.children.append(span)
    if not roots:  # cycle (malformed input); fall back to first span
        return spans[order[0]]
    if len(roots) == 1:
        return roots[0]
    # Partial trace with several orphans: stitch under a synthetic root.
    synthetic = Span(trace_id=trace_id, span_id=f"{trace_id}/partial",
                     parent_span=None, children=roots)
    return synthetic


@dataclass(frozen=True)
class CriticalPath:
    """The longest root-to-leaf chain of a span tree, by finish time.

    Answers "which leg of the write dominated": for a parallel-add
    write the path runs root → swap → the *slowest* add.  Durations are
    relative to the root span's first event, so they compose with the
    deterministic soak clocks as well as wall time.
    """

    spans: tuple[Span, ...]
    start: float
    finish: float

    @property
    def duration(self) -> float:
        return self.finish - self.start

    @property
    def dominant(self) -> Span:
        """The leaf that set the operation's latency."""
        return self.spans[-1]

    def describe(self) -> str:
        """One line per hop: span id, kind, and finish offset."""
        lines = []
        for span in self.spans:
            finish = _span_finish(span)
            node = next(
                (e.detail.get("node") for e in span.events
                 if e.detail.get("node") is not None),
                None,
            )
            where = f" node={node}" if node else ""
            lines.append(
                f"{span.span_id} [{span.kind}]{where} "
                f"+{max(0.0, finish - self.start) * 1000:.3f}ms"
            )
        return "\n".join(lines)


def _span_start(span: Span) -> float:
    return min((e.timestamp for e in span.events), default=0.0)


def _span_finish(span: Span) -> float:
    """A span's finish time: its latest own event.  Node spans are
    single point events, so start == finish; client root spans pair
    begin/end events."""
    return max((e.timestamp for e in span.events), default=0.0)


def critical_path(root: Span) -> CriticalPath:
    """Annotate ``root`` with its longest path: the chain from the root
    to the descendant whose subtree finishes last.

    Ties break on span id so the path is deterministic for the seeded
    soak traces (equal timestamps are common under simulated clocks).
    """

    def subtree_finish(span: Span) -> float:
        return max(
            [_span_finish(span)] + [subtree_finish(c) for c in span.children]
        )

    chain: list[Span] = [root]
    current = root
    while current.children:
        # Always descend: a parent's own end event necessarily closes
        # after its children (the client waits for the fan-out), so the
        # question "which leg dominated" is answered by the child whose
        # subtree finished last, all the way to a leaf.
        slowest = max(
            current.children, key=lambda s: (subtree_finish(s), s.span_id)
        )
        chain.append(slowest)
        current = slowest
    return CriticalPath(
        spans=tuple(chain),
        start=_span_start(root),
        finish=subtree_finish(root),
    )


def render_span_tree(span: Span, indent: str = "") -> str:
    """Human-readable tree, one line per span::

        c1:w1 write.begin client=c1
          c1:s1 node.swap node=storage-0
            c1:s2 node.add node=storage-2
    """
    kinds = ",".join(
        dict.fromkeys(e.kind for e in sorted(span.events, key=lambda e: e.timestamp))
    )
    extras = ""
    for event in span.events:
        node = event.detail.get("node")
        if node is not None:
            extras = f" node={node}"
            break
    line = f"{indent}{span.span_id} [{kinds}] source={span.source}{extras}"
    lines = [line]
    for child in sorted(span.children, key=lambda s: s.span_id):
        lines.append(render_span_tree(child, indent + "  "))
    return "\n".join(lines)
