"""Seeded message-level fault injection: FaultPlan + ChaosTransport.

The paper's failure model is fail-stop with *detectable* halts;
:meth:`Transport.crash` and :meth:`Transport.partition` raise cleanly
and instantly.  Real networks misbehave in messier ways — messages get
dropped, delayed, duplicated by retrying middleboxes, and nodes go
*gray* (alive but orders of magnitude slower).  This module injects
exactly those pathologies around any inner :class:`Transport`, so the
protocol's timeout/suspicion machinery can be exercised and soaked.

Design principles
-----------------

* **Deterministic.**  Every fault decision is a pure function of
  ``(seed, rule, src, dst, op, link-op-count)`` — no global RNG state,
  no wall clock.  Two runs of the same (deterministic) workload under
  the same plan inject byte-identical fault sequences, so a soak
  failure reproduces from its printed seed.  Rule activation windows
  are therefore expressed in per-link op counts, not wall time.
* **Honest timeout semantics.**  A dropped request surfaces as
  :class:`~repro.errors.RpcTimeoutError` only after the caller's
  deadline elapses; a caller with *no* deadline blocks for the plan's
  ``blackhole`` interval — the "client hangs forever" failure mode the
  deadline machinery exists to prevent.  A message delayed beyond the
  deadline is still *delivered* before the caller's timeout fires:
  the classic ambiguity where a timed-out write may have been applied.
* **Auditable.**  Every injected fault is appended to a ledger
  (:class:`FaultEvent`), so tests can assert both "faults actually
  happened" and "two runs injected the same faults".
"""

from __future__ import annotations

import fnmatch
import hashlib
import random
import threading
import time
from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from repro.errors import NodeBusyError, NodeUnavailableError, RpcTimeoutError
from repro.net.message import NO_ENVELOPE, Envelope, estimate_size
from repro.storage.state import ReadResult
from repro.net.transport import (
    UNATTRIBUTED_KIND,
    FailureListener,
    RpcHandler,
    Transport,
)


def _unit(*parts: object) -> float:
    """A deterministic uniform draw in [0, 1) keyed by ``parts``."""
    text = "|".join(str(p) for p in parts).encode()
    digest = hashlib.blake2b(text, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2**64


def _corrupt_response(result: object, key: tuple) -> object | None:
    """A copy of ``result`` with one deterministically chosen bit of
    its block payload flipped, or None when there is nothing to flip
    (the response carries no block).  The flip happens on a copy: the
    serving node's state is untouched — only the wire lies."""
    if not isinstance(result, ReadResult) or result.block is None:
        return None
    block = np.array(result.block, dtype=np.uint8, copy=True)
    if block.size == 0:
        return None
    bit = int(_unit(*key, "bit") * block.size * 8)
    bit = min(bit, block.size * 8 - 1)
    block[bit // 8] ^= np.uint8(1 << (bit % 8))
    return replace(result, block=block)


@dataclass(frozen=True)
class FaultRule:
    """One per-link/per-op fault specification.

    ``src``/``dst``/``op`` are :mod:`fnmatch` patterns (``*`` = any).
    Probabilities are per matching message.  ``after_op``/``before_op``
    bound the rule's activation window in *per-link op counts* (the
    0-based sequence number of calls on the (src, dst) link), which —
    unlike wall time — is deterministic under a deterministic workload.
    """

    src: str = "*"
    dst: str = "*"
    op: str = "*"
    #: Probability the request is lost (never delivered).
    drop: float = 0.0
    #: Probability the request is delivered twice (duplicated retry).
    dup: float = 0.0
    #: Fixed extra one-way latency, seconds.
    delay: float = 0.0
    #: Additional uniform latency in [0, jitter), seconds.
    jitter: float = 0.0
    #: Gray-node stall: every matching message takes this long, seconds.
    stall: float = 0.0
    #: Probability the *response* payload is corrupted in flight (one
    #: deterministic bit flip in a read's block).  Only read-style
    #: responses carrying a block are affected; the node's own copy
    #: stays intact — this is the wire-corruption axis, the at-rest
    #: axis being the WAL's media flips.
    corrupt: float = 0.0
    #: Activation window in link op counts: [after_op, before_op).
    after_op: int = 0
    before_op: int | None = None

    def matches(self, src: str, dst: str, op: str, count: int) -> bool:
        if count < self.after_op:
            return False
        if self.before_op is not None and count >= self.before_op:
            return False
        return (
            fnmatch.fnmatchcase(src, self.src)
            and fnmatch.fnmatchcase(dst, self.dst)
            and fnmatch.fnmatchcase(op, self.op)
        )


@dataclass(frozen=True)
class FaultDecision:
    """What the plan does to one message."""

    drop: bool = False
    dup: bool = False
    delay: float = 0.0
    stall: float = 0.0
    corrupt: bool = False

    @property
    def faulty(self) -> bool:
        return (
            self.drop
            or self.dup
            or self.delay > 0.0
            or self.stall > 0.0
            or self.corrupt
        )


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, for the ledger."""

    kind: str  # drop | duplicate | delay | stall | stall_timeout | late_delivery | corrupt
    src: str
    dst: str
    op: str
    count: int  # link op count of the affected message
    #: Request payload bytes of the affected message (its envelope
    #: header is never sized), so wire-byte counters can reconcile
    #: exactly against the ledger.  Deliberately excluded from
    #: :meth:`key` — ledger digests predate this field and must not
    #: shift under payload-size changes.
    bytes: int = 0

    def key(self) -> tuple[str, str, str, str, int]:
        return (self.kind, self.src, self.dst, self.op, self.count)


class FaultPlan:
    """A seeded, deterministic set of fault rules.

    ``decide`` is a pure function of its arguments and the seed — the
    plan holds no mutable RNG state, so concurrent callers on distinct
    links cannot perturb each other's draws.
    """

    def __init__(
        self,
        rules: Iterable[FaultRule],
        seed: int = 0,
        blackhole: float = 30.0,
    ):
        self.rules = tuple(rules)
        self.seed = seed
        #: How long a lost/stalled message blocks a caller that set no
        #: deadline — the observable "hang" the deadline machinery
        #: exists to avoid (kept finite so misconfigured tests fail
        #: loudly instead of wedging forever).
        self.blackhole = blackhole

    def decide(self, src: str, dst: str, op: str, count: int) -> FaultDecision:
        drop = dup = corrupt = False
        delay = 0.0
        stall = 0.0
        for idx, rule in enumerate(self.rules):
            if not rule.matches(src, dst, op, count):
                continue
            key = (self.seed, idx, src, dst, op, count)
            if rule.drop and _unit(*key, "drop") < rule.drop:
                drop = True
            if rule.dup and _unit(*key, "dup") < rule.dup:
                dup = True
            if rule.corrupt and _unit(*key, "corrupt") < rule.corrupt:
                corrupt = True
            if rule.delay or rule.jitter:
                delay += rule.delay + rule.jitter * _unit(*key, "jitter")
            if rule.stall:
                stall = max(stall, rule.stall)
        return FaultDecision(
            drop=drop, dup=dup, delay=delay, stall=stall, corrupt=corrupt
        )

    @classmethod
    def generate(
        cls,
        seed: int,
        storage_nodes: Iterable[str],
        *,
        drop: float = 0.05,
        dup: float = 0.05,
        delay: float = 0.0002,
        jitter: float = 0.0008,
        gray_stall: float = 5.0,
        gray_window: tuple[int, int] = (10, 80),
        corrupt: float = 0.0,
        blackhole: float = 30.0,
    ) -> "FaultPlan":
        """A randomized-but-seeded plan over a set of storage nodes.

        Picks roughly half the storage nodes as lossy links (drop),
        duplicates idempotence-checkable ops cluster-wide, adds small
        delay/jitter everywhere, and makes one node gray (stalled) for
        a window of its per-link op counts.  All choices come from
        ``random.Random(seed)``, so the plan itself reproduces.
        """
        nodes = sorted(storage_nodes)
        rng = random.Random(seed)
        rules: list[FaultRule] = [
            FaultRule(delay=delay, jitter=jitter),
        ]
        lossy = rng.sample(nodes, max(1, len(nodes) // 2)) if nodes else []
        for node in lossy:
            rules.append(FaultRule(dst=node, drop=drop))
        # Duplicate only ops the nodes can recognise as replays via
        # recentlist/epoch checks (swap replays are deduped too, but
        # read-class ops make the cleanest cross-check).
        for op in ("add", "read", "get_state", "probe", "checktid"):
            rules.append(FaultRule(op=op, dup=dup))
        if nodes and gray_stall > 0:
            gray = rng.choice(nodes)
            rules.append(
                FaultRule(
                    dst=gray,
                    stall=gray_stall,
                    after_op=gray_window[0],
                    before_op=gray_window[1],
                )
            )
        if corrupt > 0:
            # Wire corruption targets read responses cluster-wide: the
            # only RPC whose response carries a block payload a client
            # will hand to an application.
            rules.append(FaultRule(op="read", corrupt=corrupt))
        return cls(rules, seed=seed, blackhole=blackhole)


class ChaosTransport(Transport):
    """Wrap any transport, injecting a :class:`FaultPlan` around calls.

    Everything except fault injection — membership, crash state,
    partitions, listeners, the metrics registry — delegates to the inner
    transport, so a cluster wired through chaos behaves identically
    once :meth:`disable` is called (used for post-soak scrubbing).
    """

    def __init__(self, inner: Transport, plan: FaultPlan):
        # Deliberately not calling super().__init__(): all transport
        # state lives in ``inner``; this wrapper only adds fault state.
        self.inner = inner
        self.plan = plan
        self.ledger: list[FaultEvent] = []
        self._chaos_lock = threading.Lock()
        self._counts: dict[tuple[str, str], int] = {}
        self._enabled = True

    # -- fault controls ------------------------------------------------------

    def disable(self) -> None:
        """Stop injecting faults (the plan and ledger stay intact)."""
        self._enabled = False

    def enable(self) -> None:
        self._enabled = True

    def ledger_counts(self) -> dict[str, int]:
        with self._chaos_lock:
            events = list(self.ledger)
        counts: dict[str, int] = {}
        for event in events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def ledger_key(self) -> tuple[tuple[str, str, str, str, int], ...]:
        """A stable fingerprint of the injected-fault sequence."""
        with self._chaos_lock:
            return tuple(sorted(event.key() for event in self.ledger))

    def _record(
        self, kind: str, src: str, dst: str, op: str, count: int, size: int = 0
    ) -> None:
        with self._chaos_lock:
            self.ledger.append(FaultEvent(kind, src, dst, op, count, size))
        # Mirror the ledger into the registry 1:1 so a metrics snapshot
        # reconciles exactly against ledger_counts() after a soak.
        metrics = self.metrics
        if metrics.enabled:
            metrics.counter("chaos_faults_total", kind=kind).inc()

    def _account_undelivered(
        self, cause: str, op: str, size: int, kind: str | None
    ) -> None:
        """Wire counters for a request this wrapper swallowed (drop /
        gray stall): the inner transport never sees it, so the bytes
        the caller *sent into the void* must be counted here for the
        cost auditor to explain."""
        metrics = self.metrics
        if metrics.enabled:
            k = kind or UNATTRIBUTED_KIND
            metrics.counter(
                "rpc_dropped_messages_total", kind=k, op=op, cause=cause
            ).inc()
            metrics.counter("rpc_dropped_bytes_total", kind=k).inc(size)

    def _account_duplicate(self, op: str, size: int, kind: str | None) -> None:
        """Wire counters for a second (replayed) delivery.  The inner
        transport counts the replay like any delivered message; these
        counters let the auditor subtract exactly what duplication
        added."""
        metrics = self.metrics
        if metrics.enabled:
            k = kind or UNATTRIBUTED_KIND
            metrics.counter(
                "rpc_duplicate_messages_total", kind=k, op=op
            ).inc()
            metrics.counter("rpc_duplicate_bytes_total", kind=k).inc(size)

    def _count_surfaced_timeout(self, op: str) -> None:
        """Count a timeout this wrapper raises *instead of* delivering
        (drop / gray-stall): the inner transport never sees the call,
        so its instrumentation cannot."""
        metrics = self.metrics
        if metrics.enabled:
            metrics.counter("rpc_calls_total", op=op, result="timeout").inc()

    def _decide(self, src: str, dst: str, op: str) -> tuple[int, FaultDecision]:
        """Draw the link's next op count and the plan's verdict on it."""
        with self._chaos_lock:
            count = self._counts.get((src, dst), 0)
            self._counts[(src, dst)] = count + 1
        return count, self.plan.decide(src, dst, op, count)

    # -- delegation ----------------------------------------------------------

    @property
    def metrics(self):
        return self.inner.metrics

    @metrics.setter
    def metrics(self, registry) -> None:
        # Instrumentation lives on the inner transport (delivered calls
        # are counted there); the setter lets cluster wiring assign the
        # registry to whichever transport is outermost.
        self.inner.metrics = registry

    @property
    def admission(self):
        return self.inner.admission

    @admission.setter
    def admission(self, controller) -> None:
        # Admission control is server-side and lives where requests are
        # actually served — the inner transport.
        self.inner.admission = controller

    def register(self, node_id: str, handler: RpcHandler | None = None) -> None:
        self.inner.register(node_id, handler)

    def members(self) -> set[str]:
        return self.inner.members()

    def crash(self, node_id: str) -> None:
        self.inner.crash(node_id)

    def is_crashed(self, node_id: str) -> bool:
        return self.inner.is_crashed(node_id)

    def add_failure_listener(self, listener: FailureListener) -> None:
        self.inner.add_failure_listener(listener)

    def partition(self, side_a: Iterable[str], side_b: Iterable[str]) -> None:
        self.inner.partition(side_a, side_b)

    def heal(
        self,
        side_a: Iterable[str] | None = None,
        side_b: Iterable[str] | None = None,
    ) -> None:
        self.inner.heal(side_a, side_b)

    # -- faulty messaging ----------------------------------------------------

    def _call_impl(
        self,
        src: str,
        dst: str,
        op: str,
        *args: object,
        env: Envelope = NO_ENVELOPE,
        **kwargs: object,
    ) -> object:
        # Satisfies the Transport ABC; unused, because call() below is
        # overridden wholesale (faults must wrap the inner transport,
        # whose own call() already carries the metrics instrumentation).
        return self.inner.call(src, dst, op, *args, env=env, **kwargs)

    def call(
        self,
        src: str,
        dst: str,
        op: str,
        *args: object,
        env: Envelope = NO_ENVELOPE,
        **kwargs: object,
    ) -> object:
        if not self._enabled:
            return self.inner.call(src, dst, op, *args, env=env, **kwargs)
        count, decision = self._decide(src, dst, op)
        if not decision.faulty:
            return self.inner.call(src, dst, op, *args, env=env, **kwargs)
        return self._faulty_call(src, dst, op, args, env, kwargs, count, decision)

    def _faulty_call(self, src: str, dst: str, op: str, args: tuple, env: Envelope,
                     kwargs: dict, count: int, decision: FaultDecision) -> object:
        """Deliver one message the plan has a fault for."""
        budget = env.timeout
        size = estimate_size(args) + estimate_size(kwargs)
        if decision.drop:
            # The request vanishes: the caller learns nothing until its
            # deadline (or the plan's blackhole interval) elapses.
            self._record("drop", src, dst, op, count, size)
            self._account_undelivered("drop", op, size, env.kind)
            wait = budget if budget is not None else self.plan.blackhole
            time.sleep(wait)
            self._count_surfaced_timeout(op)
            raise RpcTimeoutError(dst, op, env.timeout)

        if decision.stall > 0.0:
            if budget is not None and budget < decision.stall:
                # Gray node: still alive, but the caller gives up first.
                # The request is *not* applied (it is queued behind the
                # stall), keeping timed-out-vs-applied distinct from the
                # late-delivery case below.
                self._record("stall_timeout", src, dst, op, count, size)
                self._account_undelivered("stall_timeout", op, size, env.kind)
                time.sleep(budget)
                self._count_surfaced_timeout(op)
                raise RpcTimeoutError(dst, op, env.timeout)
            self._record("stall", src, dst, op, count, size)
            time.sleep(decision.stall)
            if budget is not None:
                budget -= decision.stall

        if decision.delay > 0.0:
            if budget is not None and decision.delay >= budget:
                # Delivered late: the server applies the op, but the
                # caller's deadline fires first — the classic "timed
                # out, yet it happened" ambiguity retries must survive.
                time.sleep(budget)
                try:
                    self.inner.call(
                        src, dst, op, *args, env=replace(env, timeout=None),
                        **kwargs,
                    )
                except (NodeUnavailableError, NodeBusyError):
                    pass
                self._record("late_delivery", src, dst, op, count, size)
                self._count_surfaced_timeout(op)
                raise RpcTimeoutError(dst, op, env.timeout)
            self._record("delay", src, dst, op, count, size)
            time.sleep(decision.delay)
            if budget is not None:
                budget -= decision.delay

        env = replace(env, timeout=budget)
        result = self.inner.call(src, dst, op, *args, env=env, **kwargs)
        if decision.corrupt:
            corrupted = _corrupt_response(
                result, (self.plan.seed, src, dst, op, count)
            )
            if corrupted is not None:
                # Ledgered only when bytes actually changed hands wrong
                # (a blockless response has nothing to flip), keeping
                # the ledger 1:1 with corrupt payloads delivered.
                self._record("corrupt", src, dst, op, count, size)
                result = corrupted
        if decision.dup:
            # Second delivery of the same request (a retrying network);
            # its response is discarded, so only server-side effects
            # matter — nodes must recognise the replay.
            self._record("duplicate", src, dst, op, count, size)
            self._account_duplicate(op, size, env.kind)
            try:
                self.inner.call(src, dst, op, *args, env=env, **kwargs)
            except (NodeUnavailableError, NodeBusyError):
                pass
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
        """Per-destination faults; a dropped leg becomes an
        :class:`RpcTimeoutError` entry rather than aborting the batch.

        Every leg is decided in ``dsts`` order (one link count each);
        the legs the plan leaves alone still travel as one multicast
        frame through the inner transport, so a fault-free plan keeps
        the wire accounting of an unwrapped broadcast."""
        if not self._enabled:
            return self.inner.broadcast(src, dsts, op, *args, env=env, **kwargs)
        decided = {dst: self._decide(src, dst, op) for dst in dsts}
        clean = [dst for dst in dsts if not decided[dst][1].faulty]
        results = (
            self.inner.broadcast(src, clean, op, *args, env=env, **kwargs)
            if clean else {}
        )
        for dst, (count, decision) in decided.items():
            if not decision.faulty:
                continue
            try:
                results[dst] = self._faulty_call(
                    src, dst, op, args, env, kwargs, count, decision
                )
            except Exception as exc:  # delivered per-destination
                results[dst] = exc
        return {dst: results[dst] for dst in dsts}
