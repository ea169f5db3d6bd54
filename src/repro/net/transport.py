"""Transport abstraction: RPC, fail-stop crashes, partitions, listeners.

The protocol code (clients and storage nodes) is written against this
interface only, so it does not care whether messages travel over an
in-process call graph (:mod:`repro.net.local`), a socket, or a
simulator.  The interface encodes the paper's failure model:

* **fail-stop** (Schneider): a crashed node halts and its halted state
  is detectable — calls to it raise :class:`NodeUnavailableError`
  rather than hanging, and registered listeners are notified so storage
  nodes can expire locks held by a crashed client (Fig. 6, the
  "upon failure of *lid*" handler).
* **partitions**: pairs of nodes can be disconnected to reproduce the
  switch-failure scenario of the paper's limitations discussion.
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable
from typing import TypeVar

from repro.errors import (
    NodeBusyError,
    NodeUnavailableError,
    PartitionedError,
    RpcTimeoutError,
    UnknownNodeError,
)
from repro.net.message import NO_ENVELOPE, Envelope, estimate_size
from repro.obs.metrics import NULL_REGISTRY

T = TypeVar("T")
R = TypeVar("R")

#: Callback invoked with the id of a node that just crashed.
FailureListener = Callable[[str], None]

#: Attribution label for wire traffic whose envelope names no op kind
#: (baselines, tests poking the transport).
UNATTRIBUTED_KIND = "other"


def classify_outcome(exc: BaseException) -> str:
    """Metric ``result`` label for a failed RPC (order matters: the
    timeout/partition classes subclass :class:`NodeUnavailableError`)."""
    if isinstance(exc, NodeBusyError):
        return "busy"
    if isinstance(exc, RpcTimeoutError):
        return "timeout"
    if isinstance(exc, PartitionedError):
        return "partitioned"
    if isinstance(exc, NodeUnavailableError):
        return "unavailable"
    return "error"


class RpcHandler(ABC):
    """Something that serves RPCs (a storage-node server)."""

    @abstractmethod
    def handle(self, op: str, *args: object, env: Envelope = NO_ENVELOPE) -> object:
        """Execute operation ``op`` on ``args`` and return its result.

        ``env`` is the call's header; a handler reads what it needs from
        it.  Arguments are positional only: nothing else rides as a
        keyword."""


class Transport(ABC):
    """Message fabric connecting client and storage nodes."""

    def __init__(self) -> None:
        #: Observability sink and the only wire accounting; swapped for a
        #: live registry by the cluster wiring.  Hot paths guard on
        #: ``metrics.enabled`` so the default costs one attribute check
        #: per RPC and sizes no payload.
        self.metrics = NULL_REGISTRY
        #: Optional server-side admission control
        #: (:class:`~repro.net.backpressure.AdmissionController`).  When
        #: set, transports bound each node's in-flight requests and shed
        #: the excess with :class:`~repro.errors.NodeBusyError`.
        self.admission = None
        self._lock = threading.RLock()
        self._handlers: dict[str, RpcHandler] = {}
        self._members: set[str] = set()
        self._crashed: set[str] = set()
        self._blocked_pairs: set[frozenset[str]] = set()
        self._listeners: list[FailureListener] = []

    # -- membership ---------------------------------------------------------

    def register(self, node_id: str, handler: RpcHandler | None = None) -> None:
        """Add a node.  Clients register with no handler (they only call)."""
        with self._lock:
            self._members.add(node_id)
            self._crashed.discard(node_id)
            if handler is not None:
                self._handlers[node_id] = handler

    def members(self) -> set[str]:
        with self._lock:
            return set(self._members)

    # -- failure injection ----------------------------------------------------

    def crash(self, node_id: str) -> None:
        """Fail-stop ``node_id`` and notify failure listeners."""
        with self._lock:
            if node_id not in self._members:
                raise UnknownNodeError(node_id)
            if node_id in self._crashed:
                return
            self._crashed.add(node_id)
            listeners = list(self._listeners)
        for listener in listeners:
            listener(node_id)

    def is_crashed(self, node_id: str) -> bool:
        with self._lock:
            return node_id in self._crashed

    def add_failure_listener(self, listener: FailureListener) -> None:
        """Subscribe to crash notifications (perfect failure detector)."""
        with self._lock:
            self._listeners.append(listener)

    def partition(self, side_a: Iterable[str], side_b: Iterable[str]) -> None:
        """Disconnect every pair across the two sides (both directions)."""
        with self._lock:
            for a in side_a:
                for b in side_b:
                    if a != b:
                        self._blocked_pairs.add(frozenset((a, b)))

    def heal(
        self,
        side_a: Iterable[str] | None = None,
        side_b: Iterable[str] | None = None,
    ) -> None:
        """Reconnect nodes.

        With no arguments every partition is removed (the historical
        behaviour).  With two sides only the pairs across them are
        reconnected, so tests can lift one switch failure while another
        stays in force.
        """
        if (side_a is None) != (side_b is None):
            raise ValueError("heal() takes either no sides or both sides")
        with self._lock:
            if side_a is None:
                self._blocked_pairs.clear()
                return
            for a in side_a:
                for b in side_b:
                    self._blocked_pairs.discard(frozenset((a, b)))

    def _check_reachable(self, src: str, dst: str) -> None:
        # Fault-free fast path.  Each emptiness test is atomic under the
        # GIL, and a crash racing it is no different from one landing
        # just after the locked check below.
        if not (self._crashed or self._blocked_pairs):
            return
        with self._lock:
            if src in self._crashed:
                # A crashed node cannot act; treating its own calls as
                # failures keeps crash injection race-free in tests.
                raise NodeUnavailableError(src, "caller crashed")
            if dst in self._crashed:
                raise NodeUnavailableError(dst)
            if frozenset((src, dst)) in self._blocked_pairs:
                raise PartitionedError(src, dst)

    def _handler_for(self, dst: str) -> RpcHandler:
        with self._lock:
            handler = self._handlers.get(dst)
        if handler is None:
            raise UnknownNodeError(dst)
        return handler

    # -- wire accounting ------------------------------------------------------

    def _record_request(
        self, op: str, payload: object, kind: str | None = None,
        size: int | None = None,
    ) -> None:
        """Count one request message leaving the caller.

        ``kind`` is the logical operation that caused the RPC (write,
        read, recovery_phase1, gc, ...), read from the call's envelope.
        ``payload`` is the operation's arguments, never the header; it
        is sized only when a live registry counts the bytes, unless the
        caller already sized it for its own use and passes ``size``.
        """
        metrics = self.metrics
        if metrics.enabled:
            k = kind or UNATTRIBUTED_KIND
            metrics.counter("rpc_messages_total", kind=k, op=op, dir="request").inc()
            metrics.counter("rpc_bytes_sent_total", kind=k, op=op).inc(
                estimate_size(payload) if size is None else size
            )

    def _record_response(
        self, op: str, payload: object, kind: str | None = None,
        size: int | None = None,
    ) -> None:
        """Count one response message arriving back at the caller."""
        metrics = self.metrics
        if metrics.enabled:
            k = kind or UNATTRIBUTED_KIND
            metrics.counter("rpc_messages_total", kind=k, op=op, dir="response").inc()
            metrics.counter("rpc_bytes_received_total", kind=k, op=op).inc(
                estimate_size(payload) if size is None else size
            )

    # -- messaging ------------------------------------------------------------

    def call(
        self,
        src: str,
        dst: str,
        op: str,
        *args: object,
        env: Envelope = NO_ENVELOPE,
    ) -> object:
        """Synchronous RPC from ``src`` to ``dst``.

        ``env`` is the call's header, delivered to the handler beside
        ``args``.  ``env.timeout`` is a deadline in seconds for the whole
        round trip; when it elapses the call raises
        :class:`~repro.errors.RpcTimeoutError` instead of blocking.
        ``None`` waits indefinitely, preserving the original fail-stop
        model where only crashes fail calls.

        Concrete transports implement :meth:`_call_impl`; this wrapper
        adds the per-method call/latency/outcome metrics so every
        transport is instrumented identically.
        """
        metrics = self.metrics
        if not metrics.enabled:
            return self._call_impl(src, dst, op, *args, env=env)
        start = time.perf_counter()
        result = "ok"
        try:
            return self._call_impl(src, dst, op, *args, env=env)
        except Exception as exc:
            result = classify_outcome(exc)
            raise
        finally:
            metrics.counter("rpc_calls_total", op=op, result=result).inc()
            metrics.histogram("rpc_latency_seconds", op=op).observe(
                time.perf_counter() - start
            )

    @abstractmethod
    def _call_impl(
        self,
        src: str,
        dst: str,
        op: str,
        *args: object,
        env: Envelope = NO_ENVELOPE,
    ) -> object:
        """Transport-specific body of :meth:`call` (uninstrumented)."""

    def fan_out(
        self, items: Iterable[T], body: Callable[[T], R]
    ) -> dict[T, R | Exception]:
        """One leg of ``body`` per item, results gathered by item: the
        paper's ``pfor`` over storage nodes.

        As with :func:`~repro.net.rpc.pfor`, an exception a leg raises
        is that leg's result, never raised, and the other legs still run.
        Here the legs run on the caller's thread, in the order given:
        this transport delivers every message inside this process, so a
        leg only ever waits on this interpreter and a thread per leg
        would overlap nothing.  A transport whose delivery can sleep (a
        modeled delay, an injected fault) runs its legs on the pool."""
        results: dict[T, R | Exception] = {}
        for item in items:
            try:
                results[item] = body(item)
            except Exception as exc:  # delivered per-leg
                results[item] = exc
        return results

    def broadcast(
        self,
        src: str,
        dsts: list[str],
        op: str,
        *args: object,
        env: Envelope = NO_ENVELOPE,
    ) -> dict[str, object]:
        """One logical send delivered to many nodes (Section 3.11).

        The default implementation loops over :meth:`call`; transports
        with true broadcast support override it so the payload leaves
        the client once (this is what makes AJX-bcast's write bandwidth
        3B instead of (p+2)B).  Per-destination failures are returned
        as exception objects, not raised — crashes, sheds and handler
        errors alike — so a broadcast to a partly crashed stripe still
        updates the live nodes.
        """
        results: dict[str, object] = {}
        for dst in dsts:
            try:
                results[dst] = self.call(src, dst, op, *args, env=env)
            except Exception as exc:  # delivered per-destination
                results[dst] = exc
        return results
