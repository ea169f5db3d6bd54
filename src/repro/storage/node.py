"""The storage node: a thin, passive server of simple block operations.

Implements, verbatim where possible, the storage-node side of the
paper's Figs. 4 (read), 5 (swap/add/checktid), 6 (recovery ops) and 7
(garbage collection), generalized from "one node = one block" to one
:class:`~repro.storage.state.BlockState` per block slot served.

Design notes
------------
* All operations execute under one node-wide lock: the node behaves as
  a single-threaded thin device serving one short request at a time
  ("thin servers" principle, Section 3).
* A node created with ``fresh=True`` models a *remapped replacement*
  (Section 3.5): block slots materialize with ``opmode = INIT`` and
  random garbage content ("after fail-remap random"), epoch 0, empty
  tid lists.
* For the broadcast optimization (Section 3.11) the node itself
  multiplies incoming deltas by its erasure-code coefficient, so it
  must know the volume's code and layout; ``VolumeMeta`` carries them.
  Clients address broadcast adds with ``index = BROADCAST_INDEX`` and
  the node resolves its own stripe position from its slot number.
"""

from __future__ import annotations

import threading
import time as _time
from dataclasses import dataclass

import numpy as np

from repro.erasure.rs import ReedSolomonCode
from repro.erasure.striping import StripeLayout
from repro.gf import field
from repro.ids import BlockAddr, Tid
from repro.net.message import NO_ENVELOPE, Envelope
from repro.net.transport import RpcHandler
from repro.errors import StalePlacementError, UnknownOperationError
from repro.obs.metrics import NULL_REGISTRY
from repro.obs.trace import NULL_TRACER
from repro.storage.store import BlockStore
from repro.storage.state import (
    AddResult,
    AddStatus,
    BlockState,
    CheckTidStatus,
    FingerprintResult,
    LockMode,
    OpMode,
    ReadResult,
    StateSnapshot,
    SwapResult,
    TidEntry,
    TryLockResult,
    content_fingerprint,
    tids,
)

#: Sentinel stripe index used by broadcast adds: "you know your own
#: position, work it out from your slot".
BROADCAST_INDEX = -1


@dataclass(frozen=True)
class VolumeMeta:
    """Per-volume configuration a storage node needs."""

    code: ReedSolomonCode
    layout: StripeLayout
    block_size: int = 1024


class StorageNode(RpcHandler):
    """One storage node serving the paper's remote procedures."""

    #: Remote procedures clients may invoke.
    OPERATIONS = frozenset(
        {
            "read",
            "swap",
            "add",
            "checktid",
            "trylock",
            "setlock",
            "get_state",
            "getrecent",
            "reconstruct",
            "finalize",
            "gc_old",
            "gc_recent",
            "probe",
            "set_generation",
            "retire",
            "fingerprint",
        }
    )

    def __init__(
        self,
        node_id: str,
        slot: int,
        volumes: dict[str, VolumeMeta],
        fresh: bool = False,
        seed: int | None = None,
        store: BlockStore | None = None,
        lock_lease: float | None = None,
        restore: dict[BlockAddr, BlockState] | None = None,
    ):
        self.node_id = node_id
        self.slot = slot
        self.volumes = dict(volumes)
        self.fresh = fresh
        self.store = store  # persistence backend (None = state-only)
        # Lease-based lock expiry: the alternative liveness mechanism
        # when crash notifications are unavailable (the paper's Fig. 6
        # footnote about nodes "losing their locked state").  None
        # disables it; with a lease, a lock held longer than this many
        # seconds expires on next touch, exactly as if "upon failure of
        # lid" had fired.
        self.lock_lease = lock_lease
        self._blocks: dict[BlockAddr, BlockState] = {}
        self._lock = threading.RLock()
        self._clock = 0  # node-local logical time ("auto incremented")
        self._rng = np.random.default_rng(seed)
        #: Observability sinks, swapped in by cluster wiring; the
        #: defaults cost one attribute check per request.
        self.metrics = NULL_REGISTRY
        self.tracer = NULL_TRACER
        #: Placement-mode wiring (elastic clusters): the shared
        #: PlacementMap, set by the cluster, lets broadcast adds resolve
        #: against the stripe's *committed* placement instead of the
        #: static layout.  Placement records are node-local metadata,
        #: not BlockState, so they are state-only for now (the elastic
        #: machinery runs on state-only nodes).
        self.placement = None
        self._stripe_gens: dict[tuple[str, int], int] = {}
        self._retired: set[BlockAddr] = set()
        if restore:
            # Crash-restart with durable state: adopt the replayed
            # images and resume the logical clock past every persisted
            # entry so new tid entries keep strictly increasing times.
            self._blocks.update(restore)
            self._clock = max(
                (
                    entry.seq_time
                    for state in restore.values()
                    for entry in state.recentlist | state.oldlist
                ),
                default=0,
            )

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def handle(
        self, op: str, *args: object, env: Envelope = NO_ENVELOPE, **kwargs: object
    ) -> object:
        # The envelope keeps operation signatures header-free.  Its
        # placement generation is checked only when present (placement-
        # mode clients stamp it; the rebalancer and legacy clusters do
        # not); its trace context is echoed only by a traced node.
        if op not in self.OPERATIONS:
            raise UnknownOperationError(f"{self.node_id}: no operation {op!r}")
        if self.metrics.enabled:
            self.metrics.counter("node_ops_total", node=self.node_id, op=op).inc()
        with self._lock:
            if env.gen is not None and args and isinstance(args[0], BlockAddr):
                self._check_generation(args[0], env.gen)
            result = getattr(self, op)(*args, **kwargs)
        # Emit after releasing the node lock: the tracer has its own
        # lock and the request is already served.
        if env.trace is not None and self.tracer.enabled:
            self._emit_trace(op, env.trace, result)
        return result

    def _emit_trace(self, op: str, trace: tuple, result: object) -> None:
        """One ``node.<op>`` event carrying the span identity the caller
        allocated, so span trees show the server-side half of each RPC."""
        trace_id, span_id, parent = trace
        detail: dict[str, object] = {
            "trace_id": trace_id,
            "span": span_id,
            "parent": parent,
            "node": self.node_id,
        }
        if isinstance(result, AddResult):
            detail["status"] = result.status.name
        elif isinstance(result, SwapResult):
            detail["ok"] = result.block is not None
        self.tracer.emit(f"node:{self.node_id}", f"node.{op}", **detail)

    def _meta(self, addr: BlockAddr) -> VolumeMeta:
        try:
            return self.volumes[addr.volume]
        except KeyError:
            raise UnknownOperationError(
                f"{self.node_id}: unknown volume {addr.volume!r}"
            ) from None

    def _state(self, addr: BlockAddr) -> BlockState:
        """Materialize per-block state lazily.

        An original node starts every block at content 0, NORM, unlocked
        (Fig. 4: "block, initially 0"); a fresh replacement starts it as
        INIT garbage ("after fail-remap random").
        """
        state = self._blocks.get(addr)
        if state is None:
            size = self._meta(addr).block_size
            if self.fresh:
                # INIT garbage is never served; no fingerprint until
                # a reconstruct writes real content.
                content = self._rng.integers(0, 256, size, dtype=np.uint8)
                state = BlockState(block=content, opmode=OpMode.INIT)
            else:
                zeros = np.zeros(size, dtype=np.uint8)
                state = BlockState(
                    block=zeros, fingerprint=content_fingerprint(zeros)
                )
            self._blocks[addr] = state
        return state

    def _tick(self) -> tuple[int, float]:
        self._clock += 1
        return self._clock, _time.monotonic()

    def _entry(self, tid: Tid) -> TidEntry:
        seq_time, wall = self._tick()
        return TidEntry(tid=tid, seq_time=seq_time, wall_time=wall)

    def _persist(self, addr: BlockAddr, state: BlockState) -> None:
        """Push a content change to the persistence backend (if any).

        Redundant-block images may be buffered by a write-back store
        (§3.11); data blocks are always written through.
        """
        if self.store is None:
            return
        redundant = addr.index >= self._meta(addr).code.k
        self.store.persist(addr, state, redundant)

    def _persist_meta(self, addr: BlockAddr, state: BlockState) -> None:
        """Push a metadata-only change (epoch, tid lists, opmode) to the
        backend; a no-op for content-only stores."""
        if self.store is not None:
            self.store.persist_meta(addr, state)

    def _maybe_expire(self, state: BlockState) -> None:
        """Lease expiry: a lock older than ``lock_lease`` becomes EXP."""
        if (
            self.lock_lease is not None
            and state.lmode in (LockMode.L0, LockMode.L1)
            and _time.monotonic() - state.lock_time > self.lock_lease
        ):
            state.lmode = LockMode.EXP

    def _observe(self, addr: BlockAddr) -> None:
        """Advance the store's sequential-write cursor (§3.11: flush a
        buffered redundant block once a write for a large enough
        logical block arrives)."""
        if self.store is not None:
            self.store.observe_stripe(addr.stripe)

    def _check_generation(self, addr: BlockAddr, gen: int) -> None:
        """Reject requests stamped with a stale placement generation.

        The stripe's recorded generation advances when a migration
        commits (``set_generation`` / ``retire``); any request stamped
        older comes from a client whose placement cache predates the
        migration, and serving it could hand out bytes the stripe no
        longer lives at.  A *retired* concrete address is rejected
        regardless of stamp: this node migrated that block away and no
        longer serves it.
        """
        recorded = self._stripe_gens.get((addr.volume, addr.stripe))
        if recorded is not None and gen < recorded:
            if self.metrics.enabled:
                self.metrics.counter(
                    "node_stale_placement_rejects_total", node=self.node_id
                ).inc()
            raise StalePlacementError(self.node_id, addr.stripe, gen, recorded)
        if addr.index != BROADCAST_INDEX and addr in self._retired:
            if self.metrics.enabled:
                self.metrics.counter(
                    "node_stale_placement_rejects_total", node=self.node_id
                ).inc()
            raise StalePlacementError(
                self.node_id, addr.stripe, gen, recorded, retired=True
            )

    def _resolve(self, addr: BlockAddr, ntid: Tid) -> tuple[BlockAddr, int | None]:
        """Resolve a broadcast address to this node's stripe position.

        Returns the concrete address plus the coefficient alpha_{ji}
        this node must apply (None for unicast adds, where the client
        already multiplied).  In placement mode the position comes from
        the stripe's committed placement, not the static layout.
        """
        if addr.index != BROADCAST_INDEX:
            return addr, None
        meta = self._meta(addr)
        code = meta.code
        if self.placement is not None:
            gen, slots = self.placement.lookup(addr.stripe)
            for j in range(code.k, code.n):
                if slots[j] == self.slot:
                    return addr.sibling(j), code.coefficient(j, ntid.index)
            # The committed placement no longer (or not yet) includes
            # this node for the stripe: the sender's map is stale.
            raise StalePlacementError(self.node_id, addr.stripe, None, gen)
        layout = meta.layout
        for j in range(code.k, code.n):
            if layout.node_of_stripe_index(addr.stripe, j) == self.slot:
                return addr.sibling(j), code.coefficient(j, ntid.index)
        raise UnknownOperationError(
            f"{self.node_id}: slot {self.slot} holds no redundant block of "
            f"stripe {addr.stripe}"
        )

    # ------------------------------------------------------------------
    # Fig. 4 — read
    # ------------------------------------------------------------------

    def read(self, addr: BlockAddr) -> ReadResult:
        state = self._state(addr)
        self._maybe_expire(state)
        if state.opmode is not OpMode.NORM or state.lmode is not LockMode.UNL:
            return ReadResult(block=None, lmode=state.lmode)
        return ReadResult(block=state.block.copy(), lmode=state.lmode)

    # ------------------------------------------------------------------
    # Fig. 5 — swap / add / checktid
    # ------------------------------------------------------------------

    def swap(self, addr: BlockAddr, v: np.ndarray, ntid: Tid) -> SwapResult:
        state = self._state(addr)
        self._maybe_expire(state)
        if state.opmode is not OpMode.NORM or state.lmode is not LockMode.UNL:
            return SwapResult(
                block=None, epoch=state.epoch, otid=None, lmode=state.lmode
            )
        if ntid in tids(state.recentlist | state.oldlist):
            # Duplicated delivery (a retrying network replayed the
            # request).  Re-applying would insert a second recentlist
            # entry for the same tid and clobber the block; reject with
            # a locked-looking result the (already-answered) caller
            # would merely retry if it ever saw it.
            if self.metrics.enabled:
                self.metrics.counter(
                    "node_replay_rejects_total", node=self.node_id, op="swap"
                ).inc()
            return SwapResult(
                block=None, epoch=state.epoch, otid=None, lmode=state.lmode
            )
        retblk = state.block
        state.block = np.array(v, dtype=np.uint8, copy=True)
        state.fingerprint = content_fingerprint(state.block)
        latest = state.latest_recent()
        otid = latest.tid if latest is not None else None
        state.recentlist.add(self._entry(ntid))
        self._persist(addr, state)
        self._observe(addr)
        return SwapResult(block=retblk, epoch=state.epoch, otid=otid, lmode=state.lmode)

    def add(
        self,
        addr: BlockAddr,
        v: np.ndarray,
        ntid: Tid,
        otid: Tid | None,
        e: int,
    ) -> AddResult:
        addr, coeff = self._resolve(addr, ntid)
        state = self._state(addr)
        self._maybe_expire(state)
        if state.opmode is not OpMode.NORM or state.lmode not in (
            LockMode.UNL,
            LockMode.L0,
        ):
            return AddResult(
                status=AddStatus.ERROR, opmode=state.opmode, lmode=state.lmode
            )
        if e < state.epoch:
            # Stale-epoch add: the writer read its layout before this
            # block was reconstructed and finalized into a newer epoch.
            if self.metrics.enabled:
                self.metrics.counter(
                    "node_epoch_rejects_total", node=self.node_id
                ).inc()
            return AddResult(
                status=AddStatus.ERROR, opmode=state.opmode, lmode=state.lmode
            )
        if otid is not None and otid not in tids(state.recentlist | state.oldlist):
            if self.metrics.enabled:
                self.metrics.counter(
                    "node_order_rejects_total", node=self.node_id
                ).inc()
            return AddResult(
                status=AddStatus.ORDER, opmode=state.opmode, lmode=state.lmode
            )
        if ntid in tids(state.recentlist | state.oldlist):
            # Duplicated delivery: this add was already applied.  GF
            # addition is not idempotent (applying the diff twice
            # corrupts the block), so acknowledge OK without touching
            # the state — idempotent from the network's point of view.
            if self.metrics.enabled:
                self.metrics.counter(
                    "node_replay_rejects_total", node=self.node_id, op="add"
                ).inc()
            return AddResult(
                status=AddStatus.OK, opmode=state.opmode, lmode=state.lmode
            )
        if coeff is None:
            field.iadd_block(state.block, np.asarray(v, dtype=np.uint8))
        else:
            field.addmul_block(state.block, coeff, np.asarray(v, dtype=np.uint8))
        state.fingerprint = content_fingerprint(state.block)
        state.recentlist.add(self._entry(ntid))
        self._persist(addr, state)
        self._observe(addr)
        return AddResult(status=AddStatus.OK, opmode=state.opmode, lmode=state.lmode)

    def checktid(self, addr: BlockAddr, ntid: Tid, otid: Tid | None) -> CheckTidStatus:
        state = self._state(addr)
        if ntid not in tids(state.recentlist):
            return CheckTidStatus.INIT  # only occurs if node crashed/remapped
        if otid is not None and otid not in tids(state.recentlist):
            return CheckTidStatus.GC  # previous write completed and was GC'd
        return CheckTidStatus.NOCHANGE

    # ------------------------------------------------------------------
    # Fig. 6 — recovery support
    # ------------------------------------------------------------------

    def trylock(self, addr: BlockAddr, lm: LockMode, caller: str) -> TryLockResult:
        state = self._state(addr)
        self._maybe_expire(state)
        if state.lmode in (LockMode.L0, LockMode.L1):
            if state.lid == caller:
                # Idempotent re-grant: the first grant's response may
                # have been lost in flight, and the holder retrying is
                # the only party that can ever clear this lock — refuse
                # it and the stripe is wedged for every future recovery.
                state.lmode = lm
                state.lock_time = _time.monotonic()
                return TryLockResult(ok=True, oldlmode=LockMode.UNL)
            return TryLockResult(ok=False, oldlmode=state.lmode)
        old = state.lmode
        state.lmode = lm
        state.lid = caller
        state.lock_time = _time.monotonic()
        return TryLockResult(ok=True, oldlmode=old)

    def setlock(self, addr: BlockAddr, lm: LockMode, caller: str) -> None:
        state = self._state(addr)
        state.lmode = lm
        state.lid = caller
        state.lock_time = _time.monotonic()

    def get_state(self, addr: BlockAddr) -> StateSnapshot:
        state = self._state(addr)
        if state.opmode is OpMode.INIT:
            blk = None  # uninitialized garbage must never be decoded
        else:
            blk = state.block.copy()
        return StateSnapshot(
            opmode=state.opmode,
            recons_set=state.recons_set,
            oldlist=frozenset(state.oldlist),
            recentlist=frozenset(state.recentlist),
            block=blk,
            fingerprint=None if state.opmode is OpMode.INIT else state.fingerprint,
        )

    def fingerprint(self, addr: BlockAddr) -> FingerprintResult:
        """Integrity probe: the recorded digest vs the bytes on hand.

        Deliberately tiny on the wire — two digests and two flags, no
        block payload — which is what makes sampled auditing cheap
        relative to a full scrub.  ``stored != live`` convicts the
        medium: every legitimate mutation updates both under the node
        lock, so only out-of-band damage (a WAL flip) can split them.
        """
        state = self._state(addr)
        self._maybe_expire(state)
        return FingerprintResult(
            stored=None if state.opmode is OpMode.INIT else state.fingerprint,
            live=content_fingerprint(state.block),
            opmode=state.opmode,
            pending=bool(state.recentlist),
        )

    def getrecent(self, addr: BlockAddr, lm: LockMode, caller: str) -> frozenset[TidEntry]:
        state = self._state(addr)
        state.lmode = lm
        state.lid = caller
        state.lock_time = _time.monotonic()
        return frozenset(state.recentlist)

    def reconstruct(self, addr: BlockAddr, cset: frozenset[int], blk: np.ndarray) -> int:
        state = self._state(addr)
        state.opmode = OpMode.RECONS
        state.recons_set = frozenset(cset)
        state.block = np.array(blk, dtype=np.uint8, copy=True)
        state.fingerprint = content_fingerprint(state.block)
        # A migration copying a block *back* onto a previously retired
        # position revives it: the fresh image supersedes the marker.
        self._retired.discard(addr)
        self._persist(addr, state)
        return state.epoch

    def finalize(self, addr: BlockAddr, ep: int) -> None:
        state = self._state(addr)
        state.epoch = ep
        state.recentlist = set()
        state.oldlist = set()
        if state.opmode is OpMode.RECONS:
            state.opmode = OpMode.NORM
        state.lmode = LockMode.UNL
        state.lid = None
        if state.fingerprint is None and state.opmode is OpMode.NORM:
            # Pre-fingerprint restored state entering service: seal the
            # current content so later audits have a baseline.
            state.fingerprint = content_fingerprint(state.block)
        self._persist_meta(addr, state)

    # ------------------------------------------------------------------
    # Fig. 7 — garbage collection
    # ------------------------------------------------------------------

    def gc_old(self, addr: BlockAddr, tid_list: list[Tid] | set[Tid]) -> str | None:
        state = self._state(addr)
        if state.opmode is not OpMode.NORM or state.lmode is not LockMode.UNL:
            return None
        drop = set(tid_list)
        state.oldlist = {e for e in state.oldlist if e.tid not in drop}
        self._persist_meta(addr, state)
        return "OK"

    def gc_recent(self, addr: BlockAddr, tid_list: list[Tid] | set[Tid]) -> str | None:
        state = self._state(addr)
        if state.opmode is not OpMode.NORM or state.lmode is not LockMode.UNL:
            return None
        move = set(tid_list)
        moving = {e for e in state.recentlist if e.tid in move}
        state.recentlist -= moving
        state.oldlist |= moving
        self._persist_meta(addr, state)
        return "OK"

    # ------------------------------------------------------------------
    # Section 3.10 — monitoring probe
    # ------------------------------------------------------------------

    def probe(self, addr: BlockAddr) -> tuple[OpMode, LockMode, float | None, int]:
        """Cheap health check: opmode, lmode, the wall-clock age of the
        oldest recentlist entry (None when the list is empty), and the
        block's epoch (lets the monitor key its recovery-trigger
        memoization per (stripe, epoch))."""
        state = self._state(addr)
        self._maybe_expire(state)
        if state.recentlist:
            oldest = min(e.wall_time for e in state.recentlist)
            age = _time.monotonic() - oldest
        else:
            age = None
        return state.opmode, state.lmode, age, state.epoch

    # ------------------------------------------------------------------
    # placement migration support
    # ------------------------------------------------------------------

    def set_generation(self, addr: BlockAddr, gen: int) -> None:
        """Record that this node serves ``addr`` under map generation
        ``gen`` (monotonic); clears any retire marker for the address.
        Called by the rebalancer on every pair of the new placement at
        commit time."""
        key = (addr.volume, addr.stripe)
        if gen > self._stripe_gens.get(key, -1):
            self._stripe_gens[key] = gen
        self._retired.discard(addr)

    def retire(self, addr: BlockAddr, gen: int) -> None:
        """Mark ``addr`` as migrated away: this node keeps the bytes (a
        failed migration can still read them via the rebalancer, which
        stamps no generation) but refuses generation-stamped client
        traffic for them permanently."""
        key = (addr.volume, addr.stripe)
        if gen > self._stripe_gens.get(key, -1):
            self._stripe_gens[key] = gen
        self._retired.add(addr)

    # ------------------------------------------------------------------
    # failure-detector integration & introspection
    # ------------------------------------------------------------------

    def on_client_failure(self, client_id: str) -> None:
        """Fig. 6 bottom: "upon failure of lid when lmode in {L0, L1}:
        lmode <- EXP".  Wired to the transport's failure listeners."""
        with self._lock:
            for state in self._blocks.values():
                if state.lid == client_id and state.lmode in (
                    LockMode.L0,
                    LockMode.L1,
                ):
                    state.lmode = LockMode.EXP

    def block_count(self) -> int:
        with self._lock:
            return len(self._blocks)

    def recentlist_entries(self) -> int:
        """Total recentlist entries across all block slots (gauge feed:
        growth here means GC is falling behind, §6.5)."""
        with self._lock:
            return sum(len(s.recentlist) for s in self._blocks.values())

    def oldlist_entries(self) -> int:
        with self._lock:
            return sum(len(s.oldlist) for s in self._blocks.values())

    def register_gauges(self, registry) -> None:
        """Expose tid-list pressure and slot counts as lazy gauges —
        evaluated only at snapshot time, so the write path pays nothing."""
        node = self.node_id
        registry.register_gauge(
            "node_recentlist_entries", self.recentlist_entries, node=node
        )
        registry.register_gauge(
            "node_oldlist_entries", self.oldlist_entries, node=node
        )
        registry.register_gauge(
            "node_blocks_materialized", self.block_count, node=node
        )

    def addresses(self) -> list[BlockAddr]:
        """Every block slot this node has materialized state for."""
        with self._lock:
            return sorted(
                self._blocks, key=lambda a: (a.volume, a.stripe, a.index)
            )

    def metadata_bytes(self) -> int:
        """Total protocol control-state held, for §6.5."""
        with self._lock:
            return sum(s.metadata_bytes() for s in self._blocks.values())

    def peek(self, addr: BlockAddr) -> BlockState:
        """Direct (non-RPC) state access for tests and invariant checks."""
        with self._lock:
            return self._state(addr)

    def stripe_generation(self, volume: str, stripe: int) -> int | None:
        """Direct (non-RPC) placement-generation record, for invariant
        checks; None means no migration has touched the stripe here."""
        with self._lock:
            return self._stripe_gens.get((volume, stripe))

    def is_retired(self, addr: BlockAddr) -> bool:
        """Direct (non-RPC) retire-marker check, for invariant checks."""
        with self._lock:
            return addr in self._retired
