"""Client-side protocol: READ (Fig. 4), WRITE (Fig. 5), recovery (Fig. 6).

One :class:`ProtocolClient` instance per client node.  It orchestrates
thin storage nodes through the directory (slot -> current physical
node), implementing the paper's algorithms over any number of stripes —
each stripe is an independent instance of the per-block state machine.

Common-case behaviour matches the paper exactly: a READ is one round
trip to one storage node; a WRITE is one ``swap`` on the data node plus
one ``add`` per redundant node (issued serially, in parallel, in hybrid
groups, or via broadcast per :class:`~repro.client.config.WriteStrategy`)
— no locks, no two-phase commit, no old-version log.  Every write call,
one block or many (§3.11), takes those two rounds: one ``swap`` frame
per data node, then one summed ``add`` per redundant position.

Failure handling: an unreachable node is remapped through the directory
(§3.5) and the client runs recovery; expired or foreign locks and
out-of-mode nodes likewise route into :meth:`recover`, after which the
operation retries.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections.abc import Callable
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field

import numpy as np

from repro.client.config import ClientConfig, WriteStrategy
from repro.client.consistency import find_consistent
from repro.client.health import HealthRegistry
from repro.crashpoints import NULL_CRASHPOINTS
from repro.directory import Directory, UnknownSlotError
from repro.errors import (
    CircuitOpenError,
    CorruptionDetected,
    DataLossError,
    NodeBusyError,
    NodeUnavailableError,
    ReadFailedError,
    ReproError,
    RpcTimeoutError,
    StalePlacementError,
    WriteAbortedError,
)
from repro.gf import field as gf
from repro.ids import BlockAddr, Tid
from repro.net.backpressure import BackoffPolicy, RetryBudget
from repro.net.message import Envelope
from repro.net.rpc import _pool_instance
from repro.net.transport import Transport
from repro.obs.metrics import NULL_REGISTRY
from repro.obs.trace import NULL_TRACER, TraceContext, TraceIdAllocator
from repro.storage.node import BROADCAST_INDEX, VolumeMeta
from repro.storage.state import (
    AddResult,
    AddStatus,
    CheckTidStatus,
    LockMode,
    OpMode,
    StateSnapshot,
    SwapResult,
    content_fingerprint,
)


#: Re-sends a NodeBusyError (server-side admission shed) is given for
#: one position of a frame round, with jittered backoff, before it is
#: the position's result for the operation-level loops.
BUSY_RETRY_LIMIT = 8

#: The outcomes a round that must be answered re-sends: a shed past its
#: busy bound, or a node found unreachable (the re-send reaches its
#: replacement).
UNANSWERED = (NodeBusyError, NodeUnavailableError)


@dataclass
class ClientStats:
    """Operation counters for tests and benches."""

    reads: int = 0
    writes: int = 0
    write_attempts: int = 0
    recoveries_started: int = 0
    recoveries_completed: int = 0
    recoveries_yielded: int = 0  # lost the lock race to another recoverer
    order_retries: int = 0
    remaps: int = 0
    rpc_timeouts: int = 0  # RPCs that hit their deadline (gray/lossy net)
    suspicion_remaps: int = 0  # remaps triggered by the breaker tripping
    degraded_reads: int = 0  # reads served by decode instead of recovery
    degraded_invocations: int = 0  # read_degraded calls, served or not
    hedged_reads: int = 0  # reads where the hedge (reconstruct race) fired
    busy_rejections: int = 0  # NodeBusyError sheds observed (admission)
    unbound_retries: int = 0  # UnknownSlotError retries (mid-reconfiguration)
    breaker_fast_fails: int = 0  # calls refused locally by an open circuit
    verified_reads: int = 0  # reads whose fingerprint cross-check passed
    corruptions_detected: int = 0  # fingerprint mismatches (any source)
    budget_denials: int = 0  # retries/hedges refused by the retry budget
    stale_refetches: int = 0  # placement-cache invalidations on stale answers
    stripe_writes: int = 0  # write calls (one block or many)
    stripe_frames: int = 0  # swap and add frames they had answered
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _mirror: object = field(default=None, repr=False)
    _mirror_client: str = field(default="", repr=False)

    def mirror_to(self, registry, client: str) -> None:
        """Mirror every bump into ``client_<name>_total{client=...}`` so
        existing call sites feed the registry with no further changes."""
        self._mirror = registry
        self._mirror_client = client

    def bump(self, name: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)
        mirror = self._mirror
        if mirror is not None and mirror.enabled:
            mirror.counter(
                f"client_{name}_total", client=self._mirror_client
            ).inc(amount)


class ProtocolClient:
    """One client node running the AJX protocol against a volume."""

    def __init__(
        self,
        client_id: str,
        transport: Transport,
        directory: Directory,
        volume: str,
        meta: VolumeMeta,
        config: ClientConfig | None = None,
        health: HealthRegistry | None = None,
        retry_budget: RetryBudget | None = None,
        placement=None,
    ):
        self.client_id = client_id
        self.transport = transport
        self.directory = directory
        self.volume = volume
        self.meta = meta
        self.config = config or ClientConfig()
        self.stats = ClientStats()
        # Per-client placement cache (repro.placement.PlacementCache) on
        # elastic clusters; None keeps the static-layout fast path.  Each
        # RPC is stamped with the cached generation, and a node answering
        # StalePlacementError makes rpc invalidate + refetch + retry.
        self.placement = placement
        # Structured tracing (repro.obs.trace.Tracer); no-op by default.
        self.tracer = NULL_TRACER
        self.metrics = NULL_REGISTRY
        # Named crash/pause points (repro.crashpoints); no-op by default.
        # The crash explorer swaps in a CrashPlan to kill or freeze this
        # client at a specific protocol step.
        self.crashpoints = NULL_CRASHPOINTS
        self._trace_ids = TraceIdAllocator(client_id)
        self._seq = 0
        self._seq_lock = threading.Lock()
        self._recovering: set[int] = set()
        self._recovering_lock = threading.Lock()
        # Every fingerprint mismatch this client ever saw, as structured
        # events.  Kept observability-independent (plain list, not a
        # metric) so soaks can reconcile detections against the fault
        # ledger even in --no-observe digest-determinism runs.
        self.corruption_log: list[CorruptionDetected] = []
        self._corruption_lock = threading.Lock()
        # Per-node health scoring + circuit breakers.  The cluster wires
        # one shared registry across protocol/monitor/GC/rebuild clients;
        # a standalone client gets its own.
        self.health = health if health is not None else HealthRegistry()
        #: The cluster-wide retry budget (None = unlimited retries).
        self.retry_budget = retry_budget
        # Jittered (decorrelated) retry sleeps, seeded per client id so
        # seeded workloads draw the same sleep sequence every run.
        self._backoff = BackoffPolicy(
            self.config.backoff,
            max(self.config.backoff, self.config.backoff_cap),
            seed=int.from_bytes(
                hashlib.blake2b(
                    client_id.encode(), digest_size=8
                ).digest(),
                "big",
            ),
        )
        # ntids of completed writes, awaiting garbage collection
        # (Fig. 5 line 21 / Fig. 7); consumed by GcManager.
        self.gc_pending: dict[int, dict[int, set[Tid]]] = {}
        self._gc_lock = threading.Lock()
        transport.register(client_id)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def attach_observability(self, registry, tracer) -> None:
        """Wire this client (and its stats mirror) into shared sinks."""
        self.metrics = registry
        self.tracer = tracer
        self.stats.mirror_to(registry, self.client_id)
        self.health.metrics = registry
        if self.retry_budget is not None:
            self.retry_budget.metrics = registry

    @property
    def code(self):
        return self.meta.code

    @property
    def k(self) -> int:
        return self.meta.code.k

    @property
    def n(self) -> int:
        return self.meta.code.n

    def _next_tid(self, index: int) -> Tid:
        with self._seq_lock:
            self._seq += 1
            return Tid(seq=self._seq, index=index, client=self.client_id)

    def _resolve(
        self, stripe: int, index: int, slot: int | None = None
    ) -> tuple[int | None, int, str]:
        """(placement generation, slot, node) of one stripe position: one
        placement read and one directory lookup, never cached across
        attempts, so the next attempt after a remap reaches the new node.
        An explicit ``slot`` skips the placement read and carries no
        generation stamp: the rebalancer must reach old placements and
        retired blocks, which a stamp would have the node reject."""
        if slot is not None:
            return None, slot, self.directory.node_id(slot)
        if self.placement is None:
            gen, slot = None, self.meta.layout.node_of_stripe_index(stripe, index)
        else:
            gen, slots = self.placement.entry(stripe)
            slot = slots[index]
        return gen, slot, self.directory.node_id(slot)

    def _locate(self, stripe: int, index: int, slot: int | None = None):
        """:meth:`_resolve`, with an unbound slot retried as
        :attr:`_RETRIES` says."""
        retries: dict[type, int] = {}
        while True:
            try:
                return self._resolve(stripe, index, slot)
            except UnknownSlotError:
                if not self._absorbed(stripe, "lookup", UnknownSlotError, retries):
                    raise

    def node_of(self, stripe: int, index: int) -> str:
        """The node serving one stripe position now."""
        return self._locate(stripe, index)[2]

    def _every_position(
        self, stripe: int, args: tuple = ()
    ) -> dict[tuple[int, int], tuple]:
        """Every position of ``stripe``, each with ``args``: the batches
        of a frame round over the whole stripe."""
        return dict.fromkeys(zip([stripe] * self.n, range(self.n)), args)

    def _remap(self, stripe: int, index: int, slot: int, failed: str) -> None:
        """Point the failed node's slot at a fresh replacement (§3.5)."""
        self.stats.bump("remaps")
        self.tracer.emit(self.client_id, "remap", stripe=stripe, index=index,
                         failed=failed)
        self.directory.remap(slot, failed)

    def _sleep_backoff(self, attempt: int) -> None:
        """Jittered retry sleep."""
        delay = self._backoff.next_delay(attempt)
        if delay > 0:
            time.sleep(delay)

    def _retry_permitted(self) -> bool:
        """Spend one retry-budget token; False means the caller must
        give up instead of adding more load to a sick cluster."""
        budget = self.retry_budget
        if budget is None or budget.spend():
            return True
        self.stats.bump("budget_denials")
        return False

    def rpc(
        self,
        kind: str,
        stripe: int,
        index: int,
        op: str,
        *args,
        retry_on: tuple[type[Exception], ...] = (),
        budget: bool = False,
        slot: int | None = None,
        spans: dict[tuple[int, int], TraceContext] | None = None,
    ):
        """Send ``op`` with ``args`` to the block at position ``index``
        of ``stripe`` and return the node's answer: a round of
        :meth:`fan_out_frames` with one position, the data-plane call of
        the client and of every agent (monitor, scrub, rebuild,
        rebalance) that drives it.  The keyword arguments are the
        round's.  A result that is an exception is raised: a detected
        fail-stop has remapped the slot, so the caller enters recovery
        or repeats."""
        _, results = self.fan_out_frames(
            kind, op, {(stripe, index): args}, spans,
            retry_on=retry_on, budget=budget, slot=slot,
        )
        result = results[stripe, index]
        if isinstance(result, Exception):
            raise result
        return result

    def fan_out_frames(
        self,
        kind: str,
        op: str,
        batches: dict[tuple[int, int], tuple],
        spans: dict[tuple[int, int], TraceContext] | None = None,
        build: Callable[..., tuple] | None = None,
        retry_on: tuple[type[Exception], ...] | None = None,
        budget: bool = False,
        slot: int | None = None,
    ) -> tuple[int, dict[tuple[int, int], object]]:
        """One round of ``kind`` that sends ``op`` once to every node
        serving a position in ``batches``: the node's frame carries each
        of its positions with that position's arguments, or, with
        ``build``, with ``build(*args)``, called in the frame's leg.
        ``kind`` is stamped on every frame's :class:`Envelope`, and the
        round counts one round trip for the cost auditor.  ``slot``
        names the serving slot instead of the placement (see
        :meth:`_resolve`).

        Each frame is one :meth:`_send`, so it is counted, breakered and
        health-scored like any call.  Returns the number of frames
        answered, and each position's result in the order of
        ``batches``: the node's answer, or the exception that kept it
        from one (an unresolvable position, or a frame that was shed,
        timed out or found its node gone).  With ``spans``, each frame
        goes out under a child of the span its first position holds
        there, and every position it carried then holds the frame's span.
        A round of one position sends its frame from the caller's thread;
        a wider round's frames are legs of the transport's
        :meth:`~repro.net.transport.Transport.fan_out`, which decides
        where they run.

        Without ``retry_on`` nothing is re-sent, and a stripe answered
        with a stale stamp has its placement invalidated, counted once
        in ``stale_refetches``, so it is refetched before it is used
        again.

        With ``retry_on`` (the re-send rule) a position whose answer is
        retryable goes out again in the next frame round, within the
        same counted round: a busy, stale or unbound answer as
        :attr:`_RETRIES` says, and a ``retry_on`` outcome up to
        ``max_op_attempts`` times, each repeat spending a retry-budget
        token with ``budget``.  A position that runs out of those holds
        :class:`NodeUnavailableError`."""
        results: dict[tuple[int, int], object] = dict.fromkeys(batches)
        answered = 0
        tries: dict[tuple[int, int], list] = {}
        locate = self._locate if retry_on is None else self._resolve
        volume = self.volume
        env = Envelope(kind, None, self.config.rpc_timeout)
        if batches:
            self._account_round(kind)
        while batches:
            if len(batches) == 1:
                # One position: no grouping, and its frame goes out from
                # this thread.  Whatever it raises is its result, as a
                # fan-out leg's is.
                (key,) = order = list(batches)
                try:
                    gen, at, dst = locate(*key, slot)
                    args = batches[key]
                    frame = {BlockAddr(volume, *key): (
                        gen, args if build is None else build(*args)
                    )}
                    head = env
                    if spans is not None:
                        spans[key] = trace = self._trace_ids.child(spans[key])
                        head = Envelope(kind, trace.wire(), env.timeout)
                    (results[key],) = self._send(head, *key, at, dst, op, frame)
                    answered += 1
                except Exception as exc:
                    results[key] = exc
            else:
                order = sorted(batches)
                # Per target: the positions its frame carries, and the
                # frame as it goes on the wire, both in frame order.
                frames: dict[tuple[int, str], tuple[list, dict]] = {}
                for key in order:
                    try:
                        gen, at, dst = locate(*key, slot)
                    except ReproError as exc:
                        results[key] = exc
                        continue
                    keys, frame = frames.setdefault((at, dst), ([], {}))
                    keys.append(key)
                    frame[BlockAddr(volume, *key)] = gen, batches[key]
                traces = None if spans is None else {
                    target: self._trace_ids.child(spans[keys[0]])
                    for target, (keys, _) in frames.items()
                }

                def send(target: tuple[int, str]):
                    keys, frame = frames[target]
                    if build is not None:
                        frame = {
                            addr: (gen, build(*args))
                            for addr, (gen, args) in frame.items()
                        }
                    return self._send(
                        env if traces is None else Envelope(
                            kind, traces[target].wire(), env.timeout
                        ),
                        *keys[0], *target, op, frame,
                    )

                for target, answer in self.transport.fan_out(
                    sorted(frames), send
                ).items():
                    keys = frames[target][0]
                    if isinstance(answer, Exception):
                        answer = [answer] * len(keys)
                    else:
                        answered += 1
                    results.update(zip(keys, answer))
                    if traces is not None:
                        spans.update(dict.fromkeys(keys, traces[target]))
            if retry_on is None:
                for stripe in sorted({
                    key[0] for key in order
                    if isinstance(results[key], StalePlacementError)
                }):
                    self._absorbed(stripe, op, StalePlacementError, {})
                break
            again = {}
            for key in order:
                result = results[key]
                if not isinstance(result, Exception):
                    continue
                tried = tries.setdefault(key, [0, {}])
                if self._absorbed(key[0], op, type(result), tried[1]):
                    again[key] = batches[key]
                elif isinstance(result, retry_on):
                    tried[:] = tried[0] + 1, {}
                    if tried[0] < self.config.max_op_attempts and (
                        not budget or self._retry_permitted()
                    ):
                        again[key] = batches[key]
                    else:
                        results[key] = NodeUnavailableError(
                            f"slot for stripe {key[0]} pos {key[1]}"
                        )
            batches = again
        return answered, results

    def _absorbed(
        self, stripe: int, op: str, outcome: type, retries: dict[type, int]
    ) -> bool:
        """Whether one more attempt absorbs an ``outcome``: True only for
        an outcome of :attr:`_RETRIES` whose bound, counted in
        ``retries`` over the whole call so one outcome never resets
        another's count, is not spent, and whose pre-retry action
        agrees.  A granted retry is counted and traced."""
        if outcome not in self._RETRIES:
            return False
        limit, counter, event, prepare = self._RETRIES[outcome]
        done = retries.get(outcome, 0)
        if done >= limit or not prepare(self, stripe, done):
            return False
        retries[outcome] = done + 1
        if counter is not None:
            self.stats.bump(counter)
        if event is not None and self.tracer.enabled:
            self.tracer.emit(self.client_id, event, stripe=stripe, op=op)
        return True

    def _send(self, env, stripe, index, slot, dst, op, frame) -> list:
        """One message to ``dst``, serving ``slot``, under the call
        header ``env``: the breaker's :meth:`_gate`, one call carrying
        ``frame``, and its outcome recorded by :meth:`_observe` against
        the frame's first position ``(stripe, index)``.  Returns the
        node's results, one per address in frame order."""
        self._gate(dst)
        start = time.perf_counter()
        try:
            results = self.transport.call(self.client_id, dst, op, frame, env=env)
        except (NodeBusyError, NodeUnavailableError) as exc:
            self._observe(stripe, index, slot, dst, exc)
            raise
        self._observe(stripe, index, slot, dst, None, time.perf_counter() - start)
        return results

    def _gate(self, dst: str) -> None:
        """The circuit breaker's gate before any message to ``dst``:
        while its circuit is open the send fails fast with
        :class:`CircuitOpenError` (a NodeUnavailableError, so callers
        take their usual degraded/recovery paths) instead of burning a
        full ``rpc_timeout``."""
        if not self.health.allow_request(dst):
            self.stats.bump("breaker_fast_fails")
            raise CircuitOpenError(dst)

    def _observe(
        self,
        stripe: int,
        index: int,
        slot: int,
        dst: str,
        failure: Exception | None,
        elapsed: float = 0.0,
    ) -> None:
        """Record the outcome of one message to ``dst``, serving
        ``slot``: ``failure`` is what it raised, None for an answer that
        took ``elapsed`` seconds.

        A shed is overload, not failure: counted, health untouched.  A
        timeout is weaker evidence than a detected crash — the target
        may be gray, not dead — so remap waits for the breaker to trip
        at the suspicion threshold.  A detected fail-stop remaps at
        once.  An answer feeds the latency EWMA and earns the retry
        budget a token.  The caller still sees the failure, and retries
        or goes degraded either way."""
        if failure is None:
            self.health.observe_success(dst, elapsed)
            if self.retry_budget is not None:
                self.retry_budget.deposit()
        elif isinstance(failure, NodeBusyError):
            self.stats.bump("busy_rejections")
        elif isinstance(failure, NodeUnavailableError) and failure.node_id == dst:
            threshold = self.config.suspicion_threshold
            if isinstance(failure, RpcTimeoutError):
                self.stats.bump("rpc_timeouts")
                if self.health.observe_failure(dst, "timeout", threshold):
                    self.stats.bump("suspicion_remaps")
                    self._remap(stripe, index, slot, dst)
            else:
                self.health.observe_failure(dst, "unavailable", threshold)
                self._remap(stripe, index, slot, dst)

    # Pre-retry actions of _RETRIES: each runs before the next attempt
    # and returns False to give up instead.

    def _back_off(self, stripe: int, done: int) -> bool:
        self._sleep_backoff(done)
        return True

    def _refetch_placement(self, stripe: int, done: int) -> bool:
        if self.placement is None:
            return False
        self.placement.invalidate(stripe)
        return True

    def _spend_and_back_off(self, stripe: int, done: int) -> bool:
        if not self._retry_permitted():
            return False
        self._sleep_backoff(done)
        return True

    #: The retryable outcomes of one attempt, and how a call absorbs
    #: each: (retries allowed over the whole call, ClientStats counter
    #: and trace event per retry, pre-retry action).
    #:
    #: * A :class:`NodeBusyError` (admission shed) is overload, never
    #:   evidence of failure, so it must not reach remap or recovery.
    #:   Every shed is counted in ``busy_rejections`` where it is seen.
    #: * A :class:`StalePlacementError` means the node rejected our
    #:   placement-generation stamp: invalidate the stripe's cache entry
    #:   so the next attempt refetches.  One refetch resolves any single
    #:   migration; repeats need back-to-back reconfigurations.
    #: * An :class:`UnknownSlotError` is the mid-reconfiguration window
    #:   where the directory has not yet bound a slot this client's map
    #:   already points at (e.g. a pool grow racing the lookup); each
    #:   retry spends a retry-budget token.
    _RETRIES = {
        NodeBusyError: (BUSY_RETRY_LIMIT, None, None, _back_off),
        StalePlacementError: (
            3, "stale_refetches", "placement.refetch", _refetch_placement,
        ),
        UnknownSlotError: (
            3, "unbound_retries", "directory.unbound_retry", _spend_and_back_off,
        ),
    }

    def _account_round(self, kind: str) -> None:
        """Count logical round trips for the cost auditor.  A "round" is
        one client-side wait-for-answers step: a serial RPC is one
        round each; a frame round or a broadcast is one round total,
        re-sends included (the paper's latency unit in Fig. 1)."""
        if self.metrics.enabled:
            self.metrics.counter("rpc_rounds_total", kind=kind).inc()

    # ------------------------------------------------------------------
    # READ — Fig. 4
    # ------------------------------------------------------------------

    def read(self, stripe: int, index: int) -> np.ndarray:
        """Read data block ``index`` (< k) of ``stripe``."""
        if not 0 <= index < self.k:
            raise IndexError(f"data index {index} out of range for k={self.k}")
        addr = BlockAddr(self.volume, stripe, index)
        self.stats.bump("reads")
        for attempt in range(self.config.max_op_attempts):
            if attempt and not self._retry_permitted():
                raise ReadFailedError(
                    f"read of {addr} stopped after {attempt} attempts: "
                    "retry budget exhausted"
                )
            try:
                if self.config.hedged_reads:
                    result, hedged = self._hedged_read_attempt(stripe, index)
                    if hedged is not None:
                        return hedged
                else:
                    result = self.rpc("read", stripe, index, "read")
            except NodeBusyError:
                # Overloaded, not crashed: back off and retry — never
                # remap, never recover.
                self._sleep_backoff(attempt)
                continue
            except NodeUnavailableError:
                if self.config.degraded_reads:
                    value = self.read_degraded(stripe, index)
                    if value is not None:
                        return value
                self._start_recovery(stripe)
                continue
            if result.block is not None:
                verdict = self._verify_read(stripe, index, result.block)
                if verdict in ("verified", "unverified"):
                    return result.block
                if verdict == "media":
                    # The node's stored bytes are wrong: decode from the
                    # survivors — the liar must never enter the k-subset
                    # — then restore the stripe's redundancy.
                    value = self.read_degraded(
                        stripe, index, exclude=frozenset({index})
                    )
                    self._start_recovery(stripe, exclude=frozenset({index}))
                    if value is not None:
                        return value
                # "wire": damaged in flight, the node's copy is intact —
                # a plain retry re-reads it.
                continue
            if result.lmode in (LockMode.UNL, LockMode.EXP):
                if self.config.degraded_reads:
                    value = self.read_degraded(stripe, index)
                    if value is not None:
                        return value
                # Nobody is running recovery; we do it, then retry.
                self._start_recovery(stripe)
            else:
                # Another client's recovery holds the lock; wait it out.
                self._sleep_backoff(attempt)
        raise ReadFailedError(
            f"read of {addr} failed after {self.config.max_op_attempts} attempts"
        )

    def _hedged_read_attempt(self, stripe: int, index: int):
        """Race the data-node read against a k-of-n reconstruct.

        The primary read is issued immediately; if it has not answered
        within the health-derived hedging delay, spend one retry-budget
        token and run a degraded (decode-from-survivors) read
        concurrently, taking whichever finishes first.  The loser is
        abandoned, not cancelled — its RPC budget is already committed
        to the transport, but its eventual outcome still feeds the
        health registry, which is exactly what we want from a probe.

        Returns ``(read_result, None)`` when the primary wins (or no
        hedge fired) and ``(None, value)`` when the reconstruct wins.
        Raises like :meth:`rpc` when both paths fail.
        """
        node_id = self.node_of(stripe, index)
        delay = self.config.hedge_delay
        if delay is None:
            delay = self.health.hedge_delay(node_id)
        future = _pool_instance().submit(self.rpc, "read", stripe, index, "read")
        try:
            return future.result(timeout=delay), None
        except FutureTimeoutError:
            pass  # primary is slow; consider hedging
        # The hedge is extra load: it must fit in the retry budget.
        if not self._retry_permitted():
            return future.result(), None
        self.stats.bump("hedged_reads")
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(self.client_id, "read.hedge.fire", stripe=stripe,
                        index=index, node=node_id, delay=round(delay, 6))
        value = self.read_degraded(stripe, index)
        if future.done():
            try:
                result = future.result(timeout=0)
            except (NodeUnavailableError, NodeBusyError):
                result = None  # primary lost; fall back to the hedge
            if result is not None:
                self._hedge_won("primary", stripe, index)
                return result, None
        if value is not None:
            self._hedge_won("reconstruct", stripe, index)
            return None, value
        # Both slow and the reconstruct found no consistent set: wait
        # the primary out (bounded by its own rpc_timeout) and let its
        # outcome drive the normal retry/recovery paths.
        result = future.result()
        self._hedge_won("primary", stripe, index)
        return result, None

    def _hedge_won(self, winner: str, stripe: int, index: int) -> None:
        if self.metrics.enabled:
            self.metrics.counter("hedged_reads_total", winner=winner).inc()
        if self.tracer.enabled:
            self.tracer.emit(self.client_id, "read.hedge.win", stripe=stripe,
                             index=index, winner=winner)

    def read_degraded(
        self, stripe: int, index: int, exclude: frozenset[int] = frozenset()
    ) -> np.ndarray | None:
        """Decode data block ``index`` from surviving blocks, read-only.

        Extension beyond the paper (its reads always trigger full
        recovery, §3.5): snapshot all reachable nodes, select a
        consistent subset via the same tid-bookkeeping oracle recovery
        uses, and decode the requested block from it — no locks taken,
        nothing written back, so the stripe's redundancy is *not*
        restored.  Returns None when no consistent subset of size k is
        currently available (caller falls back to recovery).

        Consistency note: the consistent-set conditions guarantee the
        decoded value reflects a single write history, so the result is
        a value some prefix of completed/in-flight writes produced —
        within the §3.1 regular-register guarantee.
        """
        self.stats.bump("degraded_invocations")
        _, snaps = self.fan_out_frames(
            "read_degraded", "get_state",
            self._every_position(stripe), retry_on=(),
        )
        data: dict[int, StateSnapshot] = {
            j: res
            for (_, j), res in snaps.items()
            if isinstance(res, StateSnapshot) and j not in exclude
        }
        if self.config.verified_reads:
            # Drop any snapshot whose bytes fail their own fingerprint:
            # a convicted liar must not poison the consistent-set
            # selection or the decode below.
            for j in sorted(self._liars(data)):
                node_id = self.node_of(stripe, j)
                self._note_corruption("media", stripe, j, node_id)
                self.health.observe_failure(
                    node_id, "corruption", self.config.suspicion_threshold
                )
                del data[j]
        cset = find_consistent(data, self.k)
        if len(cset) < self.k:
            return None
        if index in cset and data[index].block is not None:
            return data[index].block
        available = {j: data[j].block for j in cset if data[j].block is not None}
        if len(available) < self.k:
            return None
        self.stats.bump("degraded_reads")
        self.tracer.emit(self.client_id, "read.degraded", stripe=stripe,
                         index=index)
        return self.code.decode_one(index, available)

    # ------------------------------------------------------------------
    # end-to-end integrity
    # ------------------------------------------------------------------

    @staticmethod
    def _liars(data: dict[int, StateSnapshot]) -> frozenset[int]:
        """The positions whose snapshot's bytes fail their own
        fingerprint."""
        return frozenset(
            j for j, snap in data.items()
            if snap.block is not None and snap.fingerprint is not None
            and content_fingerprint(snap.block) != snap.fingerprint
        )

    def _verify_read(self, stripe: int, index: int, block: np.ndarray) -> str:
        """Cross-check a just-read block against the serving node's
        recorded content fingerprint.

        Returns ``"verified"`` (digests agree), ``"unverified"`` (the
        check could not run — feature off, node unreachable, or no
        fingerprint on record — serve the block best-effort, exactly the
        pre-verification behaviour), ``"wire"`` (the received bytes
        differ from what the node holds: damaged in flight, retry), or
        ``"media"`` (the node's own bytes no longer match the digest it
        sealed at the last legitimate mutation: at-rest damage, repair).
        Wire and media can co-occur; media wins the returned verdict —
        repair subsumes retry — but both detections are recorded, so
        the ledger's corrupt events reconcile 1:1 with wire detections.
        """
        if not self.config.verified_reads:
            return "unverified"
        try:
            # A lost or shed probe is asked again: the block in hand
            # may be the one the wire damaged.
            fp = self.rpc(
                "audit", stripe, index, "fingerprint",
                retry_on=(NodeBusyError, RpcTimeoutError), budget=True,
            )
        except (NodeUnavailableError, NodeBusyError):
            return "unverified"
        if fp.stored is None or fp.opmode is not OpMode.NORM:
            return "unverified"
        received = content_fingerprint(block)
        wire = received != fp.live
        media = fp.live != fp.stored
        if not wire and not media:
            self.stats.bump("verified_reads")
            if self.metrics.enabled:
                self.metrics.counter("reads_verified_total").inc()
            return "verified"
        node_id = self.node_of(stripe, index)
        if wire:
            self._note_corruption("wire", stripe, index, node_id)
            # Transient: score-only penalty — the node itself is honest.
            self.health.observe_failure(
                node_id, "error", self.config.suspicion_threshold
            )
        if media:
            self._note_corruption("media", stripe, index, node_id)
            # Persistent: a lying node is quarantined on the spot.
            self.health.observe_failure(
                node_id, "corruption", self.config.suspicion_threshold
            )
        return "media" if media else "wire"

    def _note_corruption(
        self, source: str, stripe: int, index: int, node_id: str
    ) -> None:
        event = CorruptionDetected(node_id, stripe, index, source)
        with self._corruption_lock:
            self.corruption_log.append(event)
        self.stats.bump("corruptions_detected")
        if self.metrics.enabled:
            self.metrics.counter(
                "corruption_detected_total", source=source
            ).inc()
        if self.tracer.enabled:
            self.tracer.emit(
                self.client_id, "integrity.corruption",
                stripe=stripe, index=index, origin=source, node=node_id,
            )

    # ------------------------------------------------------------------
    # WRITE — Fig. 5
    # ------------------------------------------------------------------

    def write(self, stripe: int, index: int, value: np.ndarray) -> None:
        """Write ``value`` into data block ``index`` (< k) of ``stripe``:
        the one-block case of :meth:`write_stripes`."""
        self.write_stripes({stripe: {index: value}})

    def _block_value(self, index: int, value: np.ndarray) -> np.ndarray:
        """``value`` as the content of data block ``index``, or raise."""
        if not 0 <= index < self.k:
            raise IndexError(f"data index {index} out of range for k={self.k}")
        value = np.asarray(value, dtype=np.uint8)
        if value.shape != (self.meta.block_size,):
            raise ValueError(
                f"value must be exactly {self.meta.block_size} bytes, "
                f"got shape {value.shape}"
            )
        return value

    def write_stripes(self, blocks: dict[int, dict[int, np.ndarray]]) -> None:
        """Write data blocks, ``{stripe: {index: value}}``, in two rounds
        (Fig. 5, batched as in §3.11).  Round 1 is one ``swap`` frame per
        data node, carrying every block it holds.  Round 2 is the adds
        (:meth:`_send_adds`): each redundant position of a stripe gets
        one, the sum of the stripe's swapped deltas.

        A block the rounds leave unfinished continues Fig. 5's loop
        (:meth:`_write_attempts`) from the answers they got: its swap
        answer is its first swap attempt, and its stripe's add answers
        are the first spin of adds for the stripe's first unfinished
        block only, so one failed round leads to at most one recovery
        per stripe.  The stripe's other unfinished blocks then re-send
        their own adds.  Every block is attempted; the first error is
        raised once all have been."""
        values = {
            (stripe, index): self._block_value(index, value)
            for stripe, row in blocks.items()
            for index, value in row.items()
        }
        if not values:
            return
        stats = self.stats
        stats.bump("writes", len(values))
        stats.bump("write_attempts", len(values))
        stats.bump("stripe_writes")
        tracer = self.tracer
        root = spans = None
        if tracer.enabled:
            # Deterministic root span; every frame of this call carries a
            # child of it, so the whole operation reassembles as one tree.
            root = self._trace_ids.new_trace("w")
            tracer.emit(self.client_id, "write.begin", stripes=sorted(blocks),
                        blocks=len(values), **root.to_detail())
            spans = dict.fromkeys(values, root)
        ntids: dict[tuple[int, int], Tid] = {}
        batches = {}
        for key in sorted(values):
            ntids[key] = ntid = self._next_tid(key[1])
            batches[key] = (values[key], ntid)
        frames, swaps = self.fan_out_frames("write", "swap", batches, spans)
        # stripe -> [indices, deltas, (ntid, otid) pairs, least epoch] of
        # its blocks whose swap landed: what its adds carry.
        writes: dict[int, list] = {}
        for key, ntid in ntids.items():
            swap = swaps[key]
            if isinstance(swap, SwapResult) and swap.block is not None:
                diff = gf.sub_block(values[key], swap.block)
                pair = (ntid, swap.otid)
                write = writes.get(key[0])
                if write is None:
                    writes[key[0]] = [[key[1]], [diff], [pair], swap.epoch]
                else:
                    write[0].append(key[1])
                    write[1].append(diff)
                    write[2].append(pair)
                    write[3] = min(write[3], swap.epoch)
        cp = self.crashpoints
        if writes and cp.enabled:
            cp.hit("write.after_swap", stripes=sorted(writes))
        parents = None
        if spans is not None:
            parents = {s: spans[s, w[0][0]] for s, w in writes.items()}
        k, n = self.k, self.n
        added, adds = self._send_adds(writes, range(k, n), parents)
        stats.bump("stripe_frames", frames + added)
        unfinished = []
        for key, ntid in ntids.items():
            answers = adds.get(key)
            applied = set() if answers is None else {
                j for j, res in answers.items()
                if isinstance(res, AddResult) and res.status is AddStatus.OK
            }
            if len(applied) < n - k:
                unfinished.append((key, answers, applied))
                continue
            if cp.enabled:
                cp.hit("write.before_note_completed", stripe=key[0],
                       tid=str(ntid))
            applied.add(key[1])
            self._note_completed(key[0], ntid, applied)
        error: ReproError | None = None
        resumed: set[int] = set()
        for (stripe, index), answers, applied in unfinished:
            if answers is not None:
                if stripe in resumed:
                    answers = None  # re-sends its adds, past `applied`
                resumed.add(stripe)
            try:
                self._write_attempts(
                    stripe, index, values[stripe, index], ntids[stripe, index],
                    swaps[stripe, index], answers, applied, root,
                    None if spans is None else spans[stripe, index],
                )
            except ReproError as exc:
                error = error or exc
        if root is not None:
            tracer.emit(self.client_id,
                        "write.end" if error is None else "write.abort",
                        stripes=sorted(blocks), **root.to_detail())
        if error is not None:
            raise error

    def _write_attempts(
        self,
        stripe: int,
        index: int,
        value: np.ndarray,
        ntid: Tid,
        swap: SwapResult | Exception | None,
        adds: dict[int, object] | None,
        applied: set[int],
        root: TraceContext | None,
        span: TraceContext | None,
    ) -> None:
        """Fig. 5's attempt loop for one block that the rounds of
        :meth:`write_stripes` left unfinished, resumed from their
        outcome.  The first attempt keeps ``ntid``: ``swap`` is its swap
        answer, and ``adds`` its add answers by position (None to re-send
        them to the positions outside ``applied``); ``span`` is the
        trace span of its swap frame.  Every swap sent here goes out
        under a child of ``root``, and the adds under the swap's span.
        Every retry takes a fresh tid."""
        redundant = frozenset(range(self.k, self.n))
        full = redundant | {index}
        cp = self.crashpoints
        spans = None if root is None else {(stripe, index): span}
        for attempt in range(self.config.max_write_attempts):
            if attempt:
                if not self._retry_permitted():
                    raise WriteAbortedError(
                        f"write to stripe {stripe} block {index} stopped after "
                        f"{attempt} attempts: retry budget exhausted"
                    )
                self.stats.bump("write_attempts")
                ntid = self._next_tid(index)
                swap, adds, applied = None, None, set()
            if not isinstance(swap, SwapResult) or swap.block is None:
                if spans is not None:
                    spans[stripe, index] = root
                swap = self._swap_until_valid(
                    stripe, index, value, ntid, spans, answer=swap
                )
                if swap is None:
                    continue  # recovery intervened; retry with a fresh tid
                if cp.enabled:
                    cp.hit("write.after_swap", stripe=stripe, tid=str(ntid))
            diff = gf.sub_block(value, swap.block)  # v - w, to be scaled
            done = self._run_adds(
                stripe, ntid, swap, diff, redundant - applied,
                applied | {index},
                None if spans is None else spans[stripe, index], answers=adds,
            )
            if done == full:
                if cp.enabled:
                    cp.hit("write.before_note_completed", stripe=stripe,
                           tid=str(ntid))
                self._note_completed(stripe, ntid, done)
                return
        raise WriteAbortedError(
            f"write to stripe {stripe} block {index} exhausted "
            f"{self.config.max_write_attempts} attempts"
        )

    def _send_adds(
        self,
        writes: dict[int, list],
        positions,
        parents: dict[int, TraceContext] | None = None,
    ) -> tuple[int, dict[tuple[int, int], dict[int, object]]]:
        """Send the adds of ``writes`` to the redundant ``positions``
        (ascending) in the strategy's order: one round under PARALLEL,
        one per position under SERIAL, one per group under HYBRID, and
        under BROADCAST one AJX-bcast frame (§3.11) per block.

        ``writes[stripe]`` is ``[indices, diffs, pairs, epoch]``: the
        stripe's swapped data blocks, their deltas (new - old), their
        ``(ntid, otid)`` pairs and the smallest epoch their swaps saw.
        A unicast add carries the deltas summed for its position, built
        in its frame's leg, and every pair.  ``parents`` holds each
        stripe's trace parent.  Returns the frames answered and each
        block's answers by position."""
        if not writes:
            return 0, {}
        out: dict[tuple[int, int], dict[int, object]] = {}
        strategy = self.config.strategy
        if strategy is WriteStrategy.BROADCAST:
            frames = 0
            for stripe, (indices, diffs, pairs, epoch) in writes.items():
                parent = None if parents is None else parents[stripe]
                for i, diff, (ntid, otid) in zip(indices, diffs, pairs):
                    answers = self._broadcast_adds(
                        stripe, ntid, otid, epoch, diff, positions, parent
                    )
                    frames += any(
                        not isinstance(a, Exception) for a in answers.values()
                    )
                    out[stripe, i] = answers
            return frames, out
        if strategy is WriteStrategy.SERIAL:
            size = 1
        elif strategy is WriteStrategy.HYBRID:
            size = max(1, self.config.hybrid_group_size)
        else:
            size = len(positions)
        cp = self.crashpoints
        frames = 0
        results: dict[tuple[int, int], object] = {}
        for start in range(0, len(positions), size):
            group = positions[start : start + size]
            batches = {}
            for stripe, (indices, diffs, pairs, epoch) in writes.items():
                tail = (epoch, tuple(pairs[1:])) if len(pairs) > 1 else (epoch,)
                for j in group:
                    batches[stripe, j] = (j, indices, diffs, pairs[0], tail)
            answered, got = self.fan_out_frames(
                "write", "add", batches,
                None if parents is None
                else {key: parents[key[0]] for key in batches},
                self._add_args,
            )
            frames += answered
            results.update(got)
            # Which add-subset completed exists only for SERIAL; the
            # other strategies land between write.after_swap and
            # write.before_note_completed.
            if strategy is WriteStrategy.SERIAL and cp.enabled:
                cp.hit("write.after_add", stripes=sorted(writes),
                       position=group[0])
        for stripe, (indices, *_) in writes.items():
            answers = {j: results[stripe, j] for j in positions}
            for i in indices:
                out[stripe, i] = answers
        return frames, out

    def _add_args(
        self,
        j: int,
        indices: list[int],
        diffs: list[np.ndarray],
        pair: tuple[Tid, Tid | None],
        tail: tuple,
    ) -> tuple:
        """The arguments of one stripe's add at redundant position ``j``:
        its summed delta, the first ``(ntid, otid)`` pair, the epoch and
        the further pairs, if any."""
        return (self.code.parity_delta(j, indices, diffs), *pair, *tail)

    def _swap_until_valid(
        self,
        stripe: int,
        index: int,
        value: np.ndarray,
        ntid: Tid,
        spans: dict[tuple[int, int], TraceContext] | None = None,
        answer: SwapResult | Exception | None = None,
    ) -> SwapResult | None:
        """Fig. 5 lines 3-6: swap, running recovery when the node is out
        of service.  ``answer`` is the first attempt's outcome when its
        swap went out in a frame; a shed or a stale stamp there is
        re-sent at once, as :meth:`rpc` would have.  With ``spans``,
        every swap sent goes out under a child of the block's span
        there, which then holds the last one's span.  Returns None if
        attempts ran out this round."""
        parent = None if spans is None else spans[stripe, index]
        for attempt in range(self.config.max_op_attempts):
            if attempt and not self._retry_permitted():
                return None
            first, answer = answer, None
            try:
                if isinstance(first, NodeBusyError):
                    self._sleep_backoff(0)
                if first is None or isinstance(
                    first, (NodeBusyError, StalePlacementError)
                ):
                    if spans is not None:
                        spans[stripe, index] = parent
                    swap = self.rpc("write", stripe, index, "swap", value, ntid,
                                    spans=spans)
                elif isinstance(first, Exception):
                    raise first
                else:
                    swap = first
            except NodeBusyError:
                self._sleep_backoff(attempt)
                continue
            except NodeUnavailableError:
                self._start_recovery(stripe)
                continue
            if swap.block is not None:
                return swap
            if swap.lmode in (LockMode.UNL, LockMode.EXP):
                self._start_recovery(stripe)
            else:
                self._sleep_backoff(attempt)
        return None

    def _run_adds(
        self,
        stripe: int,
        ntid: Tid,
        swap: SwapResult,
        diff: np.ndarray,
        todo: frozenset[int],
        done: frozenset[int],
        trace_parent: TraceContext | None = None,
        answers: dict[int, object] | None = None,
    ) -> frozenset[int]:
        """Fig. 5 lines 7-20: drive adds to the ``todo`` positions until
        done, retrying ORDER and handling failures.  ``done`` is the set
        D of positions already holding the write; returns it updated.
        ``answers``, when given, are the first spin's answers: adds
        already sent, resumed instead of re-sent."""
        otid = swap.otid
        epoch = swap.epoch
        parents = None if trace_parent is None else {stripe: trace_parent}
        todo = set(todo)
        done = set(done)
        order_spins = 0
        for spin in range(self.config.max_op_attempts):
            if not todo or not done:
                break
            if answers is not None:
                results, answers = answers, None
            else:
                if spin and not self._retry_permitted():
                    break
                _, sent = self._send_adds(
                    {stripe: ([ntid.index], [diff], [(ntid, otid)], epoch)},
                    sorted(todo), parents,
                )
                results = sent[stripe, ntid.index]
            crashed: set[int] = set()
            resend: set[int] = set()
            normal: dict[int, AddResult] = {}
            for j, res in results.items():
                if isinstance(res, AddResult):
                    normal[j] = res
                elif isinstance(res, (NodeBusyError, StalePlacementError)):
                    # Shed by admission control, or our map was behind
                    # (the frame refetched it): just retry.
                    resend.add(j)
                else:  # fail-stop detected mid-batch
                    crashed.add(j)
            done |= {j for j, r in normal.items() if r.status is AddStatus.OK}
            retry = resend | {
                j
                for j, r in normal.items()
                if r.status is AddStatus.ORDER
                or r.lmode not in (LockMode.UNL, LockMode.L0)
            }
            saw_order = any(r.status is AddStatus.ORDER for r in normal.values())
            needs_recovery = (
                bool(crashed)
                or any(r.lmode is LockMode.EXP for r in normal.values())
                or any(
                    r.opmode is not OpMode.NORM and r.lmode is LockMode.UNL
                    for r in normal.values()
                )
                or (saw_order and order_spins >= self.config.order_retry_limit)
            )
            if needs_recovery:
                self._start_recovery(stripe)
                order_spins = 0
            if saw_order:
                self.stats.bump("order_retries")
                self.tracer.emit(self.client_id, "write.order_retry",
                                 stripe=stripe, tid=str(ntid))
                otid, done = self._check_ordering(stripe, ntid, otid, done)
                # Spin 0 restarts the backoff from its base: the wait
                # for another write's adds is usually short, and must
                # not inherit the long sleeps of this client's last op.
                self._sleep_backoff(order_spins)
                order_spins += 1
            elif retry:
                self._sleep_backoff(spin)
            todo = retry
        return frozenset(done)

    def _broadcast_adds(
        self,
        stripe: int,
        ntid: Tid,
        otid: Tid | None,
        epoch: int,
        diff: np.ndarray,
        targets: set[int],
        trace_parent: TraceContext | None = None,
    ) -> dict[int, AddResult | Exception]:
        """AJX-bcast (§3.11): one frame carries the raw diff to every
        receiver, each applying its own coefficient.  Each receiver's
        route is resolved once, an unbound slot retried as in any rpc.
        A receiver whose circuit is open stays off the frame and gets
        :class:`CircuitOpenError`; every other leg's outcome is recorded
        like a unicast's (:meth:`_observe`)."""
        by_node: dict[str, tuple[int, int]] = {}
        results: dict[int, AddResult | Exception] = {}
        gen = None
        for j in sorted(targets):
            gen, slot, node_id = self._locate(stripe, j)
            try:
                self._gate(node_id)
            except CircuitOpenError as exc:
                results[j] = exc
                continue
            by_node[node_id] = (j, slot)
        if not by_node:
            return results
        # One frame leaves the client, so one child span covers all
        # receivers; each node's event distinguishes itself by its
        # ``node`` detail.
        trace = (
            None if trace_parent is None
            else self._trace_ids.child(trace_parent).wire()
        )
        self._account_round("write")
        start = time.perf_counter()
        raw = self.transport.broadcast(
            self.client_id, list(by_node), "add",
            {
                BlockAddr(self.volume, stripe, BROADCAST_INDEX):
                    (gen, (diff, ntid, otid, epoch)),
            },
            env=Envelope(
                kind="write", trace=trace, timeout=self.config.rpc_timeout
            ),
        )
        elapsed = time.perf_counter() - start
        for node_id, res in raw.items():
            j, slot = by_node[node_id]
            failure = res if isinstance(res, Exception) else None
            self._observe(stripe, j, slot, node_id, failure, elapsed)
            results[j] = res[0] if failure is None else res
        return results

    def _check_ordering(
        self, stripe: int, ntid: Tid, otid: Tid | None, done: set[int]
    ) -> tuple[Tid | None, set[int]]:
        """Fig. 5 lines 15-19: on ORDER, ask done nodes whether the
        previous write's tid was garbage collected (write completed) and
        drop crashed nodes from D."""
        _, results = self.fan_out_frames(
            "write", "checktid",
            {(stripe, j): (ntid, otid) for j in sorted(done)}, retry_on=(),
        )
        if CheckTidStatus.GC in results.values():
            otid = None  # previous write known complete; stop ordering
        # INIT nodes leave D, and so do unreachable ones (they have
        # crashed).  Busy ones do NOT: a shed probe says nothing about
        # the node's state.
        return otid, {
            j for (_, j), r in results.items()
            if r is not CheckTidStatus.INIT
            and isinstance(r, (CheckTidStatus, NodeBusyError))
        }

    def _note_completed(self, stripe: int, ntid: Tid, done: frozenset[int]) -> None:
        """Record a completed write for two-phase GC (Fig. 5 line 21)."""
        with self._gc_lock:
            per_stripe = self.gc_pending.setdefault(stripe, {})
            for j in done:
                per_stripe.setdefault(j, set()).add(ntid)

    # ------------------------------------------------------------------
    # Recovery — Fig. 6
    # ------------------------------------------------------------------

    def _start_recovery(
        self, stripe: int, exclude: frozenset[int] | None = None
    ) -> bool:
        """Fig. 6 start_recovery: run recover() unless this client is
        already recovering this stripe (another local thread).

        Returns True only when a recovery ran here and *completed* —
        False for both "already in progress" and "yielded the lock
        race".  The monitor keys its per-(stripe, epoch) trigger
        memoization on this, so an unfinished recovery never suppresses
        a needed re-trigger."""
        with self._recovering_lock:
            if stripe in self._recovering:
                return False
            self._recovering.add(stripe)
        try:
            self.stats.bump("recoveries_started")
            self.tracer.emit(self.client_id, "recovery.begin", stripe=stripe)
            if self.recover(stripe, exclude=exclude):
                self.stats.bump("recoveries_completed")
                self.tracer.emit(self.client_id, "recovery.end", stripe=stripe)
                return True
            self.stats.bump("recoveries_yielded")
            self.tracer.emit(self.client_id, "recovery.yield", stripe=stripe)
            # Lost the lock race; give the winner time to finish.
            time.sleep(self.config.backoff)
            return False
        finally:
            with self._recovering_lock:
                self._recovering.discard(stripe)

    def recover(
        self, stripe: int, exclude: frozenset[int] | None = None
    ) -> bool:
        """Run the three-phase recovery of Fig. 6 on one stripe.

        ``exclude`` forces those positions out of the consistent set —
        the scrubber uses it to repair a silently-corrupted block by
        reconstructing the stripe from everyone else.

        Returns False if another client holds the recovery locks (we
        back off); True once the stripe is reconstructed and unlocked.
        Raises :class:`DataLossError` when fewer than k consistent
        blocks exist (beyond the failure model)."""
        metrics = self.metrics
        cp = self.crashpoints
        start = time.monotonic()
        if not self._phase1_lock_all(stripe):
            return False
        if cp.enabled:
            # Between phase 1's setlock and phase 2's state fetch.
            cp.hit("recovery.after_phase1", stripe=stripe)
        if metrics.enabled:
            metrics.histogram(
                "recovery_phase_seconds", phase="lock_all"
            ).observe(time.monotonic() - start)
        try:
            start = time.monotonic()
            data, cset = self._phase2_find_consistent(
                stripe, exclude=exclude or frozenset()
            )
            if metrics.enabled:
                metrics.histogram(
                    "recovery_phase_seconds", phase="find_consistent"
                ).observe(time.monotonic() - start)
            self.tracer.emit(self.client_id, "recovery.consistent_set",
                             stripe=stripe, cset=sorted(cset))
            start = time.monotonic()
            self._phase3_reconstruct(stripe, data, cset)
            if metrics.enabled:
                metrics.histogram(
                    "recovery_phase_seconds", phase="reconstruct"
                ).observe(time.monotonic() - start)
        except Exception:
            # Leave locks in place only if we crashed for real; on a
            # clean error path unlock so the system is not wedged.
            self._unlock_all(stripe)
            raise
        return True

    def _phase1_lock_all(self, stripe: int) -> bool:
        """Acquire L1 on all n blocks in index order; on conflict release
        what we got and yield to the other recoverer.

        Timeouts are retried, not propagated: the grant (or the release)
        may have landed with only the response lost, and the node-side
        trylock re-grants to the same caller, so retrying is safe —
        while giving up mid-acquisition would leak locks this client is
        the only party able to clear."""
        cp = self.crashpoints
        acquired: list[tuple[int, LockMode]] = []
        for j in range(self.n):
            # One round per position, its re-sends included.  A shed is
            # backed off first, a timed-out trylock may have been granted
            # (the re-grant makes re-sending safe), and an unreachable
            # node was remapped, so the re-send reaches its replacement.
            # A spent retry budget yields rather than hammers.
            try:
                result = self.rpc(
                    "recovery_phase1", stripe, j, "trylock", LockMode.L1,
                    self.client_id, retry_on=UNANSWERED, budget=True,
                )
            except NodeUnavailableError:
                result = None
            if result is None or not result.ok:
                self._set_locks("recovery_phase1", stripe, dict(acquired))
                return False
            acquired.append((j, result.oldlmode))
            if cp.enabled:
                cp.hit("recovery.phase1.after_lock", stripe=stripe, position=j)
        return True

    def _get_states(self, stripe: int) -> dict[int, StateSnapshot]:
        """Phase 2's round: every position's state snapshot, a position
        re-sent through sheds and remaps while the retry budget lasts;
        the first position left without one raises its outcome."""
        _, results = self.fan_out_frames(
            "recovery_phase2", "get_state", self._every_position(stripe),
            retry_on=UNANSWERED, budget=True,
        )
        for res in results.values():
            if not isinstance(res, StateSnapshot):
                raise res
        return {j: res for (_, j), res in results.items()}

    def _phase2_find_consistent(
        self, stripe: int, exclude: frozenset[int] = frozenset()
    ) -> tuple[dict[int, StateSnapshot], frozenset[int]]:
        cp = self.crashpoints
        data = self._get_states(stripe)
        if self.config.verified_reads:
            # A block failing its own fingerprint must never be decoded
            # *from*: its tid metadata is indistinguishably clean, so
            # without this check a no-exclude recovery could launder the
            # corruption into a freshly fingerprinted stripe.
            liars = self._liars(data)
            for j in sorted(liars - exclude):
                self._note_corruption("media", stripe, j, self.node_of(stripe, j))
            exclude = exclude | liars
        # Pick up a crashed recovery: someone already chose a consistent
        # set and started writing it back (opmode RECONS).
        for h in range(self.n):
            if data[h].opmode is OpMode.RECONS and data[h].recons_set is not None:
                cset = frozenset(data[h].recons_set) - exclude - {
                    j for j in range(self.n) if data[j].opmode is OpMode.INIT
                }
                if len(cset) < self.k:
                    raise DataLossError(
                        f"stripe {stripe}: crashed recovery left only "
                        f"{len(cset)} usable blocks (k={self.k})"
                    )
                return data, cset

        cset = find_consistent(data, self.k) - exclude
        slack = max(
            0,
            self.config.t_d
            - sum(1 for j in range(self.n) if data[j].opmode is OpMode.INIT),
        )
        target = self.k + slack
        waits = 0
        while len(cset) < target:
            # Weaken locks on redundant nodes so outstanding WRITEs can
            # finish their adds and blocks become consistent.
            self._set_locks(
                "recovery_phase2", stripe,
                dict.fromkeys(range(self.k, self.n), LockMode.L0),
            )
            if cp.enabled:
                cp.hit("recovery.phase2.after_weaken", stripe=stripe)
            while len(cset) < target:
                waits += 1
                if waits > self.config.recovery_wait_limit:
                    if len(cset) >= self.k:
                        break  # enough to decode; accept reduced slack
                    raise DataLossError(
                        f"stripe {stripe}: only {len(cset)} consistent blocks "
                        f"after waiting (k={self.k})"
                    )
                time.sleep(self.config.backoff)
                data.update(self._get_states(stripe))
                cset = find_consistent(data, self.k) - exclude
                slack = max(
                    0,
                    self.config.t_d
                    - sum(1 for j in data if data[j].opmode is OpMode.INIT),
                )
                target = self.k + slack
            # Re-take full locks before new adds slip in; any redundant
            # node whose recentlist moved is ejected and we loop again.
            # A position left without an answer is ejected too.
            _, recent = self.fan_out_frames(
                "recovery_phase2", "getrecent",
                {
                    (stripe, j): (LockMode.L1, self.client_id)
                    for j in range(self.k, self.n)
                },
                retry_on=(),
            )
            cset = cset - {
                j for (_, j), got in recent.items()
                if j in cset and got != data[j].recentlist
            }
            if len(cset) >= self.k and waits > self.config.recovery_wait_limit:
                break
        if len(cset) < self.k:
            raise DataLossError(
                f"stripe {stripe}: {len(cset)} consistent blocks < k={self.k}"
            )
        return data, cset

    def _phase3_reconstruct(
        self, stripe: int, data: dict[int, StateSnapshot], cset: frozenset[int]
    ) -> None:
        cp = self.crashpoints
        if cp.enabled:
            cp.hit("recovery.phase3.before_reconstruct", stripe=stripe,
                   cset=sorted(cset))
        available = {j: data[j].block for j in cset if data[j].block is not None}
        blocks = self.code.reconstruct_stripe(available)
        _, epochs = self.fan_out_frames(
            "recovery_phase3", "reconstruct",
            {(stripe, j): (cset, blocks[j]) for j in range(self.n)},
            retry_on=UNANSWERED,
        )
        if self.metrics.enabled:
            self.metrics.counter("recovery_reconstruct_bytes_total").inc(
                sum(len(b) for b in blocks)
            )
        numeric = [e for e in epochs.values() if isinstance(e, int)]
        if len(numeric) < self.n:
            failed = [j for (_, j), e in epochs.items() if not isinstance(e, int)]
            raise DataLossError(
                f"stripe {stripe}: could not write recovered blocks to {failed}"
            )
        new_epoch = max(numeric) + 1
        if cp.enabled:
            cp.hit("recovery.phase3.before_finalize", stripe=stripe,
                   epoch=new_epoch)
        _, results = self.fan_out_frames(
            "recovery_phase3", "finalize",
            self._every_position(stripe, (new_epoch,)), retry_on=UNANSWERED,
        )
        errors = [r for r in results.values() if isinstance(r, Exception)]
        if errors:
            raise errors[0]

    def _set_locks(
        self, kind: str, stripe: int, modes: dict[int, LockMode]
    ) -> None:
        """One round: set each position's lock to ``modes[j]``, re-sent
        through sheds and timeouts.  A lost release would leak a lock
        the same client can never reclaim, wedging the stripe for every
        future recovery; an unavailable node needs no release (its
        replacement comes up unlocked), so it is not re-sent."""
        self.fan_out_frames(kind, "setlock", {
            (stripe, j): (lm, self.client_id)
            for j, lm in modes.items()
            # The seeded regression drops releases (see ClientConfig).
            if not (self.config.test_drop_setlock_release and lm is LockMode.UNL)
        }, retry_on=(NodeBusyError, RpcTimeoutError))

    def _unlock_all(self, stripe: int) -> None:
        self._set_locks(
            "recovery_abort", stripe, dict.fromkeys(range(self.n), LockMode.UNL)
        )
