"""In-process transport: direct calls with injectable latency and faults.

This plays the role of the paper's user-mode RPC over TCP.  Every RPC
is a plain function call guarded by a per-target lock, so each storage
node serves one request at a time (a thin, single-threaded device — the
paper's "thin servers" principle taken literally).  A
:class:`DelayModel` can add per-message latency and per-byte
transmission time so latency experiments (§6.3) see realistic numbers;
tests run with zero delay.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.errors import RpcTimeoutError
from repro.net.message import NO_ENVELOPE, Envelope, estimate_size
from repro.net.transport import RpcHandler, Transport, classify_outcome as _classify


@dataclass(frozen=True)
class DelayModel:
    """Network delay parameters.

    ``latency`` is the one-way propagation + protocol-stack delay per
    message; ``bandwidth`` (bytes/s) adds size/bandwidth transmission
    time; 0 bandwidth means infinite.  The paper's testbed: 50 us ping
    RTT (25 us one way) and 500 Mbit/s.
    """

    latency: float = 0.0
    bandwidth: float = 0.0

    def one_way(self, size: int) -> float:
        delay = self.latency
        if self.bandwidth > 0:
            delay += size / self.bandwidth
        return delay

    @classmethod
    def paper_lan(cls) -> "DelayModel":
        """The testbed of Section 5.1."""
        return cls(latency=25e-6, bandwidth=500e6 / 8)


class LocalTransport(Transport):
    """Direct in-process RPC with fault and delay injection."""

    def __init__(self, delay: DelayModel | None = None):
        super().__init__()
        self.delay = delay or DelayModel()
        self._target_locks: dict[str, threading.Lock] = {}

    def register(self, node_id: str, handler: RpcHandler | None = None) -> None:
        super().register(node_id, handler)
        with self._lock:
            self._target_locks.setdefault(node_id, threading.Lock())

    def _sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)

    def _priced_size(self, payload: object) -> int | None:
        """The payload's size when the delay model charges per byte;
        None (left unsized) when it does not."""
        return estimate_size(payload) if self.delay.bandwidth > 0 else None

    def _transit(
        self, size: int | None, budget: float | None, dst: str, op: str,
        env: Envelope,
    ) -> float | None:
        """Model one message's one-way delay against the deadline budget:
        sleep it and return the budget left, or — when the deadline
        fires first — sleep the budget and raise the timeout."""
        delay = self.delay.one_way(size or 0)
        if budget is not None and delay > budget:
            self._sleep(budget)
            raise RpcTimeoutError(dst, op, env.timeout)
        self._sleep(delay)
        return None if budget is None else budget - delay

    def _serve(self, dst: str, handler: RpcHandler, op: str, args: tuple,
               env: Envelope, kwargs: dict) -> object:
        admission = self.admission
        if admission is not None:
            # Counted from arrival (queued behind the node's service
            # lock) through service: bounded queues, shed the excess.
            admission.acquire(dst, op=op)
        try:
            with self._target_locks[dst]:
                return handler.handle(op, *args, env=env, **kwargs)
        finally:
            if admission is not None:
                admission.release(dst)

    def _call_impl(
        self,
        src: str,
        dst: str,
        op: str,
        *args: object,
        env: Envelope = NO_ENVELOPE,
        **kwargs: object,
    ) -> object:
        self._check_reachable(src, dst)
        handler = self._handler_for(dst)
        payload = (args, kwargs)
        request_size = self._priced_size(payload)
        self._record_request(op, payload, env.kind, request_size)
        # Deadline enforcement covers the modeled network (the sleeps);
        # handler execution is local CPU and not interruptible here.
        budget = self._transit(request_size, env.timeout, dst, op, env)
        # The destination may have crashed while the request was in
        # flight; re-check so a message is never served by a dead node.
        self._check_reachable(src, dst)
        result = self._serve(dst, handler, op, args, env, kwargs)
        response_size = self._priced_size(result)
        self._record_response(op, result, env.kind, response_size)
        self._transit(response_size, budget, dst, op, env)
        self._check_reachable(src, dst)
        return result

    def broadcast(
        self,
        src: str,
        dsts: list[str],
        op: str,
        *args: object,
        env: Envelope = NO_ENVELOPE,
        **kwargs: object,
    ) -> dict[str, object]:
        """True broadcast: the request payload leaves the client once.

        We count one request message per destination (each NIC receives
        it) but the *request bytes* only once, matching how the paper
        charges client bandwidth in Fig. 1 (write bandwidth 3B for
        AJX-bcast).  Responses are individual unicasts.  The envelope
        deadline bounds the modeled network like a unicast's: a leg
        whose frame or reply lands after it is an :class:`RpcTimeoutError`.
        """
        payload = (args, kwargs)
        request_size = self._priced_size(payload)
        # One multicast frame on the wire, counted once (Fig. 1 counts
        # an AJX-bcast write as p+3 messages: 2 swap + 1 bcast + p acks).
        self._record_request(op, payload, env.kind, request_size)
        metrics = self.metrics
        if metrics.enabled:
            metrics.counter("rpc_broadcasts_total", op=op).inc()
        results: dict[str, object] = {}
        try:
            budget = self._transit(request_size, env.timeout, src, op, env)
            for dst in dsts:
                try:
                    self._check_reachable(src, dst)
                    handler = self._handler_for(dst)
                    results[dst] = self._serve(dst, handler, op, args, env, kwargs)
                except Exception as exc:  # delivered per-destination
                    results[dst] = exc
                    continue
                self._record_response(op, results[dst], env.kind)
            self._transit(0, budget, src, op, env)  # the replies' latency
        except RpcTimeoutError:
            for dst in dsts:
                if not isinstance(results.get(dst), Exception):
                    results[dst] = RpcTimeoutError(dst, op, env.timeout)
        if metrics.enabled:
            for res in results.values():
                outcome = _classify(res) if isinstance(res, Exception) else "ok"
                metrics.counter("rpc_calls_total", op=op, result=outcome).inc()
        return results
