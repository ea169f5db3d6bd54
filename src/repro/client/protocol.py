"""Client-side protocol: READ (Fig. 4), WRITE (Fig. 5), recovery (Fig. 6).

One :class:`ProtocolClient` instance per client node.  It orchestrates
thin storage nodes through the directory (slot -> current physical
node), implementing the paper's algorithms over any number of stripes —
each stripe is an independent instance of the per-block state machine.

Common-case behaviour matches the paper exactly: a READ is one round
trip to one storage node; a WRITE is one ``swap`` on the data node plus
one ``add`` per redundant node (issued serially, in parallel, in hybrid
groups, or via broadcast per :class:`~repro.client.config.WriteStrategy`)
— no locks, no two-phase commit, no old-version log.

Failure handling: an unreachable node is remapped through the directory
(§3.5) and the client runs recovery; expired or foreign locks and
out-of-mode nodes likewise route into :meth:`recover`, after which the
operation retries.
"""

from __future__ import annotations

import hashlib
import threading
import time
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
    RpcTimeoutError,
    StalePlacementError,
    WriteAbortedError,
)
from repro.gf import field as gf
from repro.ids import BlockAddr, Tid
from repro.net.backpressure import BackoffPolicy, RetryBudget
from repro.net.message import Envelope
from repro.net.rpc import pfor, _pool_instance
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


#: Retries a NodeBusyError (server-side admission shed) is given inside
#: :meth:`ProtocolClient._call`, with jittered backoff, before it
#: propagates to the operation-level loops.
BUSY_RETRY_LIMIT = 8


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
    hedged_reads: int = 0  # reads where the hedge (reconstruct race) fired
    busy_rejections: int = 0  # NodeBusyError sheds observed (admission)
    unbound_retries: int = 0  # UnknownSlotError retries (mid-reconfiguration)
    breaker_fast_fails: int = 0  # calls refused locally by an open circuit
    verified_reads: int = 0  # reads whose fingerprint cross-check passed
    corruptions_detected: int = 0  # fingerprint mismatches (any source)
    budget_denials: int = 0  # retries/hedges refused by the retry budget
    stale_refetches: int = 0  # placement-cache invalidations on stale answers
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
        # StalePlacementError makes _call invalidate + refetch + retry.
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

    def _addr(self, stripe: int, index: int) -> BlockAddr:
        return BlockAddr(self.volume, stripe, index)

    def _slot(self, stripe: int, index: int) -> int:
        if self.placement is not None:
            return self.placement.entry(stripe)[1][index]
        return self.meta.layout.node_of_stripe_index(stripe, index)

    def _envelope(
        self, stripe: int, kind: str | None, trace_ctx: TraceContext | None
    ) -> Envelope:
        """The header every RPC of this client carries: op kind, span,
        cached placement generation and the per-RPC deadline."""
        return Envelope(
            kind=kind,
            trace=None if trace_ctx is None else trace_ctx.wire(),
            gen=None if self.placement is None else self.placement.entry(stripe)[0],
            timeout=self.config.rpc_timeout,
        )

    def _remap(self, stripe: int, index: int, failed: str) -> None:
        """Point the failed node's slot at a fresh replacement (§3.5)."""
        self.stats.bump("remaps")
        self.tracer.emit(self.client_id, "remap", stripe=stripe, index=index,
                         failed=failed)
        self.directory.remap(self._slot(stripe, index), failed)

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

    def _call(
        self,
        stripe: int,
        index: int,
        op: str,
        *args,
        trace_ctx: TraceContext | None = None,
        op_kind: str | None = None,
        **kwargs,
    ):
        """RPC to the node serving stripe position ``index``; on fail-stop
        detection, remap and re-raise so the caller enters recovery.

        ``op_kind`` attributes the RPC's wire cost to the logical
        operation issuing it (write, read, recovery_phase1, gc, ...);
        it travels in the call's :class:`Envelope` header, which is
        never sized, so it never changes behaviour.

        A :class:`NodeBusyError` (server-side admission shed) is retried
        here with jittered backoff — overload is a *retryable* condition,
        never evidence of failure, so it must not reach the remap or
        recovery paths below.  After :data:`BUSY_RETRY_LIMIT` sheds it
        propagates for the operation-level loops to absorb.

        A :class:`StalePlacementError` means the node rejected our
        placement-generation stamp: invalidate the cache entry for the
        stripe, refetch, and retry at the current placement.  Bounded to
        a few rounds — one refetch resolves any single migration, so
        repeats only happen under back-to-back reconfigurations.

        An :class:`UnknownSlotError` is the mid-reconfiguration window
        where the directory has not yet bound a slot this client's map
        already points at (e.g. a pool grow racing the lookup).  Like a
        busy shed it is retryable, never evidence of failure: retry
        through the backoff policy, bounded by the retry budget, and
        only surface the raw error once those bounds are spent."""
        for unbound_attempt in range(4):
            try:
                for stale_attempt in range(4):
                    try:
                        for busy_attempt in range(BUSY_RETRY_LIMIT + 1):
                            try:
                                return self._call_once(
                                    stripe, index, op, *args, trace_ctx=trace_ctx,
                                    op_kind=op_kind, **kwargs,
                                )
                            except NodeBusyError:
                                self.stats.bump("busy_rejections")
                                if busy_attempt >= BUSY_RETRY_LIMIT:
                                    raise
                                time.sleep(self._backoff.next_delay(busy_attempt))
                    except StalePlacementError:
                        if self.placement is None or stale_attempt >= 3:
                            raise
                        self.placement.invalidate(stripe)
                        self.stats.bump("stale_refetches")
                        if self.tracer.enabled:
                            self.tracer.emit(self.client_id, "placement.refetch",
                                             stripe=stripe, op=op)
                raise AssertionError("unreachable")
            except UnknownSlotError:
                if unbound_attempt >= 3 or not self._retry_permitted():
                    raise
                self.stats.bump("unbound_retries")
                if self.tracer.enabled:
                    self.tracer.emit(self.client_id, "directory.unbound_retry",
                                     stripe=stripe, op=op)
                self._sleep_backoff(unbound_attempt)
        raise AssertionError("unreachable")

    def _call_once(
        self,
        stripe: int,
        index: int,
        op: str,
        *args,
        trace_ctx: TraceContext | None = None,
        op_kind: str | None = None,
        **kwargs,
    ):
        """One RPC attempt, feeding the shared health registry.

        The circuit breaker gates the attempt: while a node's circuit is
        open the call fails fast with :class:`CircuitOpenError` (a
        NodeUnavailableError, so callers take their usual degraded/
        recovery paths) instead of burning a full ``rpc_timeout``.

        A timeout is weaker evidence than a detected crash — the target
        may be gray, not dead — so remap waits for the breaker to trip
        at the suspicion threshold; the exception still propagates so
        the caller retries or goes degraded either way."""
        env = self._envelope(stripe, op_kind, trace_ctx)
        dst = self.directory.node_id(self._slot(stripe, index))
        if not self.health.allow_request(dst):
            self.stats.bump("breaker_fast_fails")
            raise CircuitOpenError(dst)
        start = time.perf_counter()
        try:
            result = self.transport.call(
                self.client_id, dst, op, *args, env=env, **kwargs
            )
        except NodeBusyError:
            raise  # overload, not failure: health state untouched
        except RpcTimeoutError as exc:
            if exc.node_id == dst:
                self.stats.bump("rpc_timeouts")
                if self.health.observe_failure(
                    dst, "timeout", self.config.suspicion_threshold
                ):
                    self.stats.bump("suspicion_remaps")
                    self._remap(stripe, index, dst)
            raise
        except NodeUnavailableError as exc:
            if exc.node_id == dst:
                self.health.observe_failure(
                    dst, "unavailable", self.config.suspicion_threshold
                )
                self._remap(stripe, index, dst)
            raise
        self.health.observe_success(dst, time.perf_counter() - start)
        if self.retry_budget is not None:
            self.retry_budget.deposit()
        return result

    def _account_round(self, kind: str | None, rounds: int = 1) -> None:
        """Count logical round trips for the cost auditor.  A "round" is
        one client-side wait-for-answers step: a serial RPC is one
        round each; a pfor/broadcast batch is one round total (the
        paper's latency unit in Fig. 1)."""
        if kind is not None and self.metrics.enabled:
            self.metrics.counter("rpc_rounds_total", kind=kind).inc(rounds)

    # ------------------------------------------------------------------
    # READ — Fig. 4
    # ------------------------------------------------------------------

    def read(self, stripe: int, index: int) -> np.ndarray:
        """Read data block ``index`` (< k) of ``stripe``."""
        if not 0 <= index < self.k:
            raise IndexError(f"data index {index} out of range for k={self.k}")
        addr = self._addr(stripe, index)
        self.stats.bump("reads")
        for attempt in range(self.config.max_op_attempts):
            if attempt and not self._retry_permitted():
                raise ReadFailedError(
                    f"read of {addr} stopped after {attempt} attempts: "
                    "retry budget exhausted"
                )
            try:
                if self.config.hedged_reads:
                    result, hedged = self._hedged_read_attempt(
                        stripe, index, addr
                    )
                    if hedged is not None:
                        return hedged
                else:
                    self._account_round("read")
                    result = self._call(
                        stripe, index, "read", addr, op_kind="read"
                    )
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
                verdict = self._verify_read(stripe, index, addr, result.block)
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

    def _hedged_read_attempt(self, stripe: int, index: int, addr: BlockAddr):
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
        Raises like :meth:`_call` when both paths fail.
        """
        node_id = self.directory.node_id(self._slot(stripe, index))
        delay = self.config.hedge_delay
        if delay is None:
            delay = self.health.hedge_delay(node_id)
        self._account_round("read")
        future = _pool_instance().submit(
            self._call, stripe, index, "read", addr, op_kind="read"
        )
        try:
            return future.result(timeout=delay), None
        except FutureTimeoutError:
            pass  # primary is slow; consider hedging
        # The hedge is extra load: it must fit in the retry budget.
        if self.retry_budget is not None and not self.retry_budget.spend():
            self.stats.bump("budget_denials")
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
        def snap(j: int) -> StateSnapshot:
            return self._call(
                stripe, j, "get_state", self._addr(stripe, j),
                op_kind="read_degraded",
            )

        self._account_round("read_degraded")
        data: dict[int, StateSnapshot] = {
            j: res
            for j, res in pfor(list(range(self.n)), snap).items()
            if isinstance(res, StateSnapshot) and j not in exclude
        }
        if self.config.verified_reads:
            # Drop any snapshot whose bytes fail their own fingerprint:
            # a convicted liar must not poison the consistent-set
            # selection or the decode below.
            for j in sorted(data):
                snap_j = data[j]
                if (
                    snap_j.block is not None
                    and snap_j.fingerprint is not None
                    and content_fingerprint(snap_j.block) != snap_j.fingerprint
                ):
                    node_id = self.directory.node_id(self._slot(stripe, j))
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
        return self.code.decode(available)[index]

    # ------------------------------------------------------------------
    # end-to-end integrity
    # ------------------------------------------------------------------

    def _verify_read(
        self, stripe: int, index: int, addr: BlockAddr, block: np.ndarray
    ) -> str:
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
            self._account_round("audit")
            fp = self._call(stripe, index, "fingerprint", addr, op_kind="audit")
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
        node_id = self.directory.node_id(self._slot(stripe, index))
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
        """Write ``value`` into data block ``index`` (< k) of ``stripe``."""
        if not 0 <= index < self.k:
            raise IndexError(f"data index {index} out of range for k={self.k}")
        value = np.asarray(value, dtype=np.uint8)
        if value.shape != (self.meta.block_size,):
            raise ValueError(
                f"value must be exactly {self.meta.block_size} bytes, "
                f"got shape {value.shape}"
            )
        self.stats.bump("writes")
        tracer = self.tracer
        root: TraceContext | None = None
        if tracer.enabled:
            # Deterministic root span; every RPC of this write carries a
            # child of it, so the whole operation reassembles as one tree.
            root = self._trace_ids.new_trace("w")
            tracer.emit(self.client_id, "write.begin", stripe=stripe,
                        index=index, **root.to_detail())
        redundant = tuple(range(self.k, self.n))
        full = frozenset((index,) + redundant)
        cp = self.crashpoints
        for attempt in range(self.config.max_write_attempts):
            if attempt and not self._retry_permitted():
                if root is not None:
                    tracer.emit(self.client_id, "write.abort", stripe=stripe,
                                index=index, **root.to_detail())
                raise WriteAbortedError(
                    f"write to stripe {stripe} block {index} stopped after "
                    f"{attempt} attempts: retry budget exhausted"
                )
            self.stats.bump("write_attempts")
            ntid = self._next_tid(index)
            swap_ctx = self._trace_ids.child(root) if root is not None else None
            swap = self._swap_until_valid(
                stripe, index, value, ntid, trace_ctx=swap_ctx
            )
            if swap is None:
                continue  # recovery intervened; retry with a fresh tid
            if cp.enabled:
                cp.hit("write.after_swap", stripe=stripe, tid=str(ntid))
            diff = gf.sub_block(value, swap.block)  # v - w, to be scaled
            done = self._run_adds(
                stripe, index, ntid, swap, diff, redundant,
                trace_parent=swap_ctx,
            )
            if done == full:
                if cp.enabled:
                    cp.hit("write.before_note_completed", stripe=stripe,
                           tid=str(ntid))
                self._note_completed(stripe, ntid, done)
                if root is not None:
                    tracer.emit(self.client_id, "write.end", stripe=stripe,
                                index=index, **root.to_detail())
                return
        if root is not None:
            tracer.emit(self.client_id, "write.abort", stripe=stripe,
                        index=index, **root.to_detail())
        raise WriteAbortedError(
            f"write to stripe {stripe} block {index} exhausted "
            f"{self.config.max_write_attempts} attempts"
        )

    def _swap_until_valid(
        self,
        stripe: int,
        index: int,
        value: np.ndarray,
        ntid: Tid,
        trace_ctx: TraceContext | None = None,
    ) -> SwapResult | None:
        """Fig. 5 lines 3-6: swap, running recovery when the node is out
        of service.  Returns None if attempts ran out this round."""
        addr = self._addr(stripe, index)
        for attempt in range(self.config.max_op_attempts):
            if attempt and not self._retry_permitted():
                return None
            try:
                self._account_round("write")
                swap = self._call(stripe, index, "swap", addr, value, ntid,
                                  trace_ctx=trace_ctx, op_kind="write")
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
        index: int,
        ntid: Tid,
        swap: SwapResult,
        diff: np.ndarray,
        redundant: tuple[int, ...],
        trace_parent: TraceContext | None = None,
    ) -> frozenset[int]:
        """Fig. 5 lines 7-20: drive adds until done, retrying ORDER and
        handling failures.  Returns the set D of updated positions."""
        otid = swap.otid
        epoch = swap.epoch
        todo: set[int] = set(redundant)
        done: set[int] = {index}
        order_spins = 0
        for spin in range(self.config.max_op_attempts):
            if not todo or not done:
                break
            if spin and not self._retry_permitted():
                break
            results = self._issue_adds(
                stripe, ntid, otid, epoch, diff, todo,
                trace_parent=trace_parent,
            )
            crashed: set[int] = set()
            busy: set[int] = set()
            stale: set[int] = set()
            normal: dict[int, AddResult] = {}
            for j, res in results.items():
                if isinstance(res, AddResult):
                    normal[j] = res
                elif isinstance(res, NodeBusyError):
                    busy.add(j)  # shed by admission control: just retry
                elif isinstance(res, StalePlacementError):
                    stale.add(j)  # our map is behind; refetch and retry
                else:  # fail-stop detected mid-batch
                    crashed.add(j)
            if stale and self.placement is not None:
                self.placement.invalidate(stripe)
                self.stats.bump("stale_refetches")
            done |= {j for j, r in normal.items() if r.status is AddStatus.OK}
            retry = busy | stale | {
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
                order_spins += 1
                otid, done = self._check_ordering(stripe, ntid, otid, done)
                self._sleep_backoff(order_spins)
            elif retry:
                self._sleep_backoff(spin)
            todo = retry
        return frozenset(done)

    def _issue_adds(
        self,
        stripe: int,
        ntid: Tid,
        otid: Tid | None,
        epoch: int,
        diff: np.ndarray,
        targets: set[int],
        trace_parent: TraceContext | None = None,
    ) -> dict[int, AddResult | Exception]:
        """Dispatch adds per the configured strategy.

        For unicast strategies the client scales the diff by alpha_{ji}
        itself; for BROADCAST it ships the raw diff once and nodes apply
        their own coefficients (§3.11).
        """
        strategy = self.config.strategy
        if strategy is WriteStrategy.BROADCAST:
            return self._broadcast_adds(
                stripe, ntid, otid, epoch, diff, targets,
                trace_parent=trace_parent,
            )

        def one(j: int) -> AddResult:
            payload = gf.mul_block(self.code.coefficient(j, ntid.index), diff)
            ctx = (
                self._trace_ids.child(trace_parent)
                if trace_parent is not None
                else None
            )
            return self._call(
                stripe, j, "add", self._addr(stripe, j), payload, ntid, otid,
                epoch, trace_ctx=ctx, op_kind="write",
            )

        ordered = sorted(targets)
        if strategy is WriteStrategy.SERIAL:
            cp = self.crashpoints
            results: dict[int, AddResult | Exception] = {}
            for j in ordered:
                try:
                    self._account_round("write")
                    results[j] = one(j)
                except (NodeUnavailableError, NodeBusyError,
                        StalePlacementError) as exc:
                    results[j] = exc
                # Per-add granularity (which add-subset completed) only
                # exists for SERIAL; batch strategies land between
                # write.after_swap and write.before_note_completed.
                if cp.enabled:
                    cp.hit("write.after_add", stripe=stripe, tid=str(ntid),
                           position=j)
            return results
        if strategy is WriteStrategy.PARALLEL:
            self._account_round("write")
            return pfor(ordered, one)
        if strategy is WriteStrategy.HYBRID:
            size = max(1, self.config.hybrid_group_size)
            results = {}
            for start in range(0, len(ordered), size):
                group = ordered[start : start + size]
                self._account_round("write")
                results.update(pfor(group, one))
            return results
        raise ValueError(f"unknown strategy {strategy!r}")

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
        addr = self._addr(stripe, BROADCAST_INDEX)
        by_node = {
            self.directory.node_id(self._slot(stripe, j)): j for j in sorted(targets)
        }
        # One frame leaves the client, so one child span covers all
        # receivers; each node's event distinguishes itself by its
        # ``node`` detail.
        env = self._envelope(
            stripe, "write",
            None if trace_parent is None else self._trace_ids.child(trace_parent),
        )
        self._account_round("write")
        raw = self.transport.broadcast(
            self.client_id, list(by_node), "add", addr, diff, ntid, otid, epoch,
            env=env,
        )
        results: dict[int, AddResult | Exception] = {}
        for node_id, res in raw.items():
            j = by_node[node_id]
            if isinstance(res, NodeUnavailableError):
                self._remap(stripe, j, node_id)
            results[j] = res
        return results

    def _check_ordering(
        self, stripe: int, ntid: Tid, otid: Tid | None, done: set[int]
    ) -> tuple[Tid | None, set[int]]:
        """Fig. 5 lines 15-19: on ORDER, ask done nodes whether the
        previous write's tid was garbage collected (write completed) and
        drop crashed nodes from D."""

        def check(j: int) -> CheckTidStatus:
            return self._call(
                stripe, j, "checktid", self._addr(stripe, j), ntid, otid,
                op_kind="write",
            )

        self._account_round("write")
        results = pfor(sorted(done), check)
        statuses = {
            j: r for j, r in results.items() if isinstance(r, CheckTidStatus)
        }
        if any(r is CheckTidStatus.GC for r in statuses.values()):
            otid = None  # previous write known complete; stop ordering
        done = done - {j for j, r in statuses.items() if r is CheckTidStatus.INIT}
        # Unreachable nodes also leave D (they have crashed).  Busy ones
        # do NOT: a shed probe says nothing about the node's state.
        done -= {
            j
            for j, r in results.items()
            if not isinstance(r, (CheckTidStatus, NodeBusyError))
        }
        return otid, done

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
            result = None
            for attempt in range(self.config.max_op_attempts):
                if attempt and not self._retry_permitted():
                    break  # budget spent; yield rather than hammer
                try:
                    self._account_round("recovery_phase1")
                    result = self._call(
                        stripe,
                        j,
                        "trylock",
                        self._addr(stripe, j),
                        LockMode.L1,
                        caller=self.client_id,
                        op_kind="recovery_phase1",
                    )
                    break
                except NodeBusyError:
                    continue  # shed; _call already backed off
                except RpcTimeoutError:
                    continue  # maybe granted; re-grant makes retry safe
                except NodeUnavailableError:
                    continue  # remapped inside _call; retry on fresh node
            if result is None or not result.ok:
                def release(item: tuple[int, LockMode]) -> None:
                    pos, old = item
                    self._setlock_robust(
                        stripe, pos, old, op_kind="recovery_phase1"
                    )
                self._account_round("recovery_phase1")
                pfor(acquired, release)
                return False
            acquired.append((j, result.oldlmode))
            if cp.enabled:
                cp.hit("recovery.phase1.after_lock", stripe=stripe, position=j)
        return True

    def _setlock_robust(
        self,
        stripe: int,
        pos: int,
        lm: LockMode,
        op_kind: str | None = None,
    ) -> None:
        """Idempotent setlock that retries through timeouts.  A dropped
        release would leak a lock the same client can never reclaim,
        wedging the stripe for every future recovery; an unavailable
        node needs no release (its replacement comes up unlocked)."""
        if self.config.test_drop_setlock_release and lm is LockMode.UNL:
            return  # seeded regression: drop releases (see ClientConfig)
        for _ in range(self.config.max_op_attempts):
            try:
                self._call(
                    stripe, pos, "setlock", self._addr(stripe, pos), lm,
                    caller=self.client_id, op_kind=op_kind,
                )
                return
            except NodeBusyError:
                continue  # a release must land; keep trying through sheds
            except RpcTimeoutError:
                continue
            except NodeUnavailableError:
                return

    def _get_states(self, stripe: int, indices: list[int]) -> dict[int, StateSnapshot]:
        def fetch(j: int) -> StateSnapshot:
            for attempt in range(self.config.max_op_attempts):
                if attempt and not self._retry_permitted():
                    break
                try:
                    return self._call(
                        stripe, j, "get_state", self._addr(stripe, j),
                        op_kind="recovery_phase2",
                    )
                except (NodeUnavailableError, NodeBusyError):
                    continue
            raise NodeUnavailableError(f"slot for stripe {stripe} pos {j}")

        self._account_round("recovery_phase2")
        results = pfor(indices, fetch)
        out: dict[int, StateSnapshot] = {}
        for j, res in results.items():
            if isinstance(res, StateSnapshot):
                out[j] = res
            else:
                raise res
        return out

    def _phase2_find_consistent(
        self, stripe: int, exclude: frozenset[int] = frozenset()
    ) -> tuple[dict[int, StateSnapshot], frozenset[int]]:
        cp = self.crashpoints
        data = self._get_states(stripe, list(range(self.n)))
        if self.config.verified_reads:
            # A block failing its own fingerprint must never be decoded
            # *from*: its tid metadata is indistinguishably clean, so
            # without this check a no-exclude recovery could launder the
            # corruption into a freshly fingerprinted stripe.
            liars = frozenset(
                j
                for j, snap in data.items()
                if snap.block is not None
                and snap.fingerprint is not None
                and content_fingerprint(snap.block) != snap.fingerprint
            )
            for j in sorted(liars - exclude):
                self._note_corruption(
                    "media", stripe, j,
                    self.directory.node_id(self._slot(stripe, j)),
                )
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
                stripe, range(self.k, self.n), LockMode.L0,
                op_kind="recovery_phase2",
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
                fresh = self._get_states(stripe, list(range(self.n)))
                data.update(fresh)
                cset = find_consistent(data, self.k) - exclude
                slack = max(
                    0,
                    self.config.t_d
                    - sum(1 for j in data if data[j].opmode is OpMode.INIT),
                )
                target = self.k + slack
            # Re-take full locks before new adds slip in; any redundant
            # node whose recentlist moved is ejected and we loop again.
            recent = {}
            for j in range(self.k, self.n):
                try:
                    self._account_round("recovery_phase2")
                    recent[j] = self._call(
                        stripe,
                        j,
                        "getrecent",
                        self._addr(stripe, j),
                        LockMode.L1,
                        caller=self.client_id,
                        op_kind="recovery_phase2",
                    )
                except (NodeUnavailableError, NodeBusyError):
                    recent[j] = None
            cset = cset - {
                j
                for j in range(self.k, self.n)
                if j in cset and recent.get(j) != data[j].recentlist
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
        epochs = self._phase3_round(
            stripe, "reconstruct", lambda j: (cset, blocks[j])
        )
        if self.metrics.enabled:
            self.metrics.counter("recovery_reconstruct_bytes_total").inc(
                sum(len(b) for b in blocks)
            )
        numeric = [e for e in epochs.values() if isinstance(e, int)]
        if len(numeric) < self.n:
            failed = [j for j, e in epochs.items() if not isinstance(e, int)]
            raise DataLossError(
                f"stripe {stripe}: could not write recovered blocks to {failed}"
            )
        new_epoch = max(numeric) + 1
        if cp.enabled:
            cp.hit("recovery.phase3.before_finalize", stripe=stripe,
                   epoch=new_epoch)
        results = self._phase3_round(stripe, "finalize", lambda j: (new_epoch,))
        errors = [r for r in results.values() if isinstance(r, Exception)]
        if errors:
            raise errors[0]

    def _phase3_round(self, stripe: int, op: str, args_for) -> dict:
        """One phase-3 round: ``op`` to all n positions in parallel, each
        leg retried through unavailable or busy nodes before it gives up
        with :class:`NodeUnavailableError` (returned, pfor-style)."""

        def one(j: int):
            for _ in range(self.config.max_op_attempts):
                try:
                    return self._call(
                        stripe, j, op, self._addr(stripe, j), *args_for(j),
                        op_kind="recovery_phase3",
                    )
                except (NodeUnavailableError, NodeBusyError):
                    continue
            raise NodeUnavailableError(f"slot for stripe {stripe} pos {j}")

        self._account_round("recovery_phase3")
        return pfor(list(range(self.n)), one)

    def _set_locks(
        self, stripe: int, indices, lm: LockMode, op_kind: str | None = None
    ) -> None:
        def one(j: int) -> None:
            self._setlock_robust(stripe, j, lm, op_kind=op_kind)

        self._account_round(op_kind)
        pfor(list(indices), one)

    def _unlock_all(self, stripe: int) -> None:
        self._set_locks(
            stripe, range(self.n), LockMode.UNL, op_kind="recovery_abort"
        )
