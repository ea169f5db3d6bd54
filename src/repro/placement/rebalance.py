"""Live stripe migration between placement generations.

The Rebalancer moves a stripe from its *committed* placement to the
map's *latest* generation while reads and writes stay live, reusing the
recovery machinery end to end:

1. **Lock** — trylock L1 on every (slot, position) pair of the old and
   new placements, in sorted order.  Conflicts release and back off
   (another client's recovery wins; the migration yields).
2. **Copy** — snapshot the old placement, choose a consistent set with
   recovery's own oracle (or adopt a crashed migration's RECONS set),
   decode the stripe, and ``reconstruct`` it onto every pair that is
   new or whose bytes were outside the consistent set.  Pairs present
   in both placements *and* in the consistent set are not copied — the
   incremental-movement savings the ``rebalance_bytes_bounded``
   invariant measures.
3. **Commit** — flip the map (``commit_stripe``), record the new
   generation at the new placement (``set_generation``) and retire the
   vacated pairs, then ``finalize`` the new placement with a bumped
   stripe epoch: in-flight deltas addressed to the old placement are
   now rejected by the ordinary stale-epoch check, exactly like
   post-recovery adds.

Crash behaviour (the ``rebalance.*`` crash points): dying before the
commit leaves the map untouched — the stripe keeps serving at its old
placement (degraded while the locks sit EXP) and a later pass redoes
the migration.  Dying after the commit leaves the new placement in
RECONS/EXP, which ordinary recovery's pickup path finalizes in place;
the rebalancer itself never needs to reconcile.

All RPCs are issued sequentially and carry *no* placement-generation
stamp: the rebalancer is the one party that must reach old placements
(and retired blocks) by design.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

from repro.client.consistency import find_consistent
from repro.crashpoints import NULL_CRASHPOINTS
from repro.errors import (
    NodeBusyError,
    NodeUnavailableError,
    ReproError,
    RpcTimeoutError,
)
from repro.ids import BlockAddr
from repro.net.backpressure import BackoffPolicy, RetryBudget
from repro.net.message import Envelope
from repro.obs.metrics import NULL_REGISTRY
from repro.placement.map import PlacementMap
from repro.storage.node import VolumeMeta
from repro.storage.state import LockMode, OpMode, StateSnapshot
from repro.obs.trace import NULL_TRACER

#: Attempts one migration RPC gets (busy, timeout, remap) before it fails.
_MAX_ATTEMPTS = 40
#: Whole lock-all passes before a contended migration yields.
_LOCK_ATTEMPTS = 5
#: Base of the seeded backoff between busy retries and lock passes,
#: seconds (capped at 50x).
_BACKOFF = 0.001


@dataclass(frozen=True)
class MigrationRecord:
    """Outcome of one per-stripe migration attempt."""

    stripe: int
    gen_from: int
    gen_to: int
    result: str  # "migrated" | "committed" | "skipped" | "yielded" | "failed"
    copied_positions: int = 0
    bytes_moved: int = 0


@dataclass
class RebalanceReport:
    """Aggregate of one :meth:`Rebalancer.migrate_all` pass."""

    records: list[MigrationRecord] = field(default_factory=list)

    def count(self, result: str) -> int:
        return sum(1 for r in self.records if r.result == result)

    @property
    def bytes_moved(self) -> int:
        return sum(r.bytes_moved for r in self.records)

    @property
    def unfinished(self) -> list[int]:
        return [r.stripe for r in self.records
                if r.result in ("yielded", "failed")]


class Rebalancer:
    """Migrates stripes to the placement map's latest generation."""

    def __init__(
        self,
        client_id: str,
        transport,
        directory,
        placement: PlacementMap,
        volume: str,
        meta: VolumeMeta,
        *,
        crashpoints=NULL_CRASHPOINTS,
        retry_budget: RetryBudget | None = None,
        rpc_timeout: float | None = None,
    ):
        self.client_id = client_id
        self.transport = transport
        self.directory = directory
        self.placement = placement
        self.volume = volume
        self.meta = meta
        self.crashpoints = crashpoints
        self.retry_budget = retry_budget
        self.rpc_timeout = rpc_timeout
        self.metrics = NULL_REGISTRY
        self.tracer = NULL_TRACER
        self._backoff = BackoffPolicy(
            _BACKOFF,
            _BACKOFF * 50,
            seed=int.from_bytes(
                hashlib.blake2b(client_id.encode(), digest_size=8).digest(),
                "big",
            ),
        )
        transport.register(client_id)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        return self.meta.code.n

    @property
    def k(self) -> int:
        return self.meta.code.k

    def _addr(self, stripe: int, index: int) -> BlockAddr:
        return BlockAddr(self.volume, stripe, index)

    def _rpc(self, slot: int, op: str, *args):
        """Sequential RPC with the same fault discipline as clients:
        busy -> backoff and retry (admission control is respected, never
        escalated); timeout -> retry (the op may have landed; every op
        used here is idempotent or replay-safe); detected crash ->
        directory remap, retry on the replacement.  Retries beyond the
        first attempt spend the shared retry budget."""
        env = Envelope(kind="rebalance", timeout=self.rpc_timeout)
        last: Exception | None = None
        for attempt in range(_MAX_ATTEMPTS):
            if attempt and self.retry_budget is not None:
                if not self.retry_budget.spend():
                    break  # budget gone: stop adding migration load
            node_id = self.directory.node_id(slot)
            if self.metrics.enabled:
                # Migration RPCs are serial: one round each.
                self.metrics.counter("rpc_rounds_total", kind="rebalance").inc()
            try:
                result = self.transport.call(
                    self.client_id, node_id, op, *args, env=env
                )
            except NodeBusyError as exc:
                last = exc
                time.sleep(self._backoff.next_delay(attempt))
                continue
            except RpcTimeoutError as exc:
                last = exc
                continue
            except NodeUnavailableError as exc:
                if exc.node_id == node_id:
                    self.directory.remap(slot, node_id)
                last = exc
                continue
            if self.retry_budget is not None:
                self.retry_budget.deposit()
            return result
        raise last if last is not None else NodeUnavailableError(
            f"slot {slot}", "no attempt succeeded"
        )

    # ------------------------------------------------------------------
    # migration
    # ------------------------------------------------------------------

    def migrate(self, stripe: int) -> MigrationRecord:
        """Bring one stripe to the latest map generation."""
        placement = self.placement
        target_gen = placement.latest_gen
        committed = placement.committed_gen(stripe)
        if committed >= target_gen:
            return MigrationRecord(stripe, committed, target_gen, "skipped")
        old_slots = placement.slots_for(stripe, committed)
        new_slots = placement.slots_for(stripe, target_gen)
        if old_slots == new_slots:
            # Placement unchanged: adopt the generation without moving
            # bytes.  Commit first so rejected stale stamps refetch into
            # the *new* generation, then record it node-side.
            placement.commit_stripe(stripe, target_gen)
            for j, slot in enumerate(new_slots):
                self._rpc(slot, "set_generation", self._addr(stripe, j),
                          target_gen)
            self._finish(stripe, committed, target_gen, "committed", 0, 0)
            return MigrationRecord(stripe, committed, target_gen, "committed")
        if self.tracer.enabled:
            self.tracer.emit(self.client_id, "rebalance.begin", stripe=stripe,
                             gen_from=committed, gen_to=target_gen)
        cp = self.crashpoints
        # -- phase 1: lock old union new placements ---------------------
        lock_targets = sorted(
            {(old_slots[j], j) for j in range(self.n)}
            | {(new_slots[j], j) for j in range(self.n)}
        )
        acquired = self._lock_all(stripe, lock_targets)
        if acquired is None:
            self._finish(stripe, committed, target_gen, "yielded", 0, 0)
            return MigrationRecord(stripe, committed, target_gen, "yielded")
        if cp.enabled:
            cp.hit("rebalance.before_copy", stripe=stripe, gen=target_gen)
        # -- phase 2: copy ----------------------------------------------
        try:
            copied, bytes_moved, new_epoch = self._copy(
                stripe, old_slots, new_slots
            )
        except ReproError:
            # Nothing was committed: release every lock and leave the
            # stripe serving (possibly degraded) at its old placement.
            self._release(stripe, acquired)
            self._finish(stripe, committed, target_gen, "failed", 0, 0)
            return MigrationRecord(stripe, committed, target_gen, "failed")
        # -- phase 3: commit --------------------------------------------
        if cp.enabled:
            cp.hit("rebalance.before_commit", stripe=stripe, gen=target_gen)
        placement.commit_stripe(stripe, target_gen)
        for j in range(self.n):
            self._rpc(new_slots[j], "set_generation", self._addr(stripe, j),
                      target_gen)
        for j in range(self.n):
            if old_slots[j] != new_slots[j]:
                self._rpc(old_slots[j], "retire", self._addr(stripe, j),
                          target_gen)
        if cp.enabled:
            cp.hit("rebalance.after_commit", stripe=stripe, gen=target_gen)
        # Epoch bump: from here every delta stamped with the old epoch
        # is rejected by the nodes' ordinary stale-epoch check.
        for j in range(self.n):
            self._rpc(new_slots[j], "finalize", self._addr(stripe, j),
                      new_epoch)
        for j in range(self.n):
            if old_slots[j] != new_slots[j]:
                self._rpc(old_slots[j], "setlock", self._addr(stripe, j),
                          LockMode.UNL, self.client_id)
        self._finish(stripe, committed, target_gen, "migrated", copied,
                     bytes_moved)
        return MigrationRecord(
            stripe, committed, target_gen, "migrated", copied, bytes_moved
        )

    def _lock_all(
        self, stripe: int, targets: list[tuple[int, int]]
    ) -> list[tuple[int, int, LockMode]] | None:
        """L1 on every (slot, position) pair, recovery-style; None when
        another lock holder kept winning (migration yields)."""
        for attempt in range(_LOCK_ATTEMPTS):
            acquired: list[tuple[int, int, LockMode]] = []
            conflict = False
            for slot, j in targets:
                try:
                    res = self._rpc(
                        slot, "trylock", self._addr(stripe, j), LockMode.L1,
                        self.client_id,
                    )
                except ReproError:
                    # Exhausted retries (budget gone, node wedged):
                    # treat like a lock conflict — release what we hold
                    # and let the migration yield rather than propagate.
                    conflict = True
                    break
                if not res.ok:
                    conflict = True
                    break
                acquired.append((slot, j, res.oldlmode))
            if not conflict:
                return acquired
            self._release(stripe, acquired)
            time.sleep(self._backoff.next_delay(attempt))
        return None

    def _release(
        self, stripe: int, acquired: list[tuple[int, int, LockMode]]
    ) -> None:
        for slot, j, old in acquired:
            self._rpc(slot, "setlock", self._addr(stripe, j), old,
                      self.client_id)

    def _copy(
        self,
        stripe: int,
        old_slots: tuple[int, ...],
        new_slots: tuple[int, ...],
    ) -> tuple[int, int, int]:
        """Decode from the old placement, reconstruct onto the new one.

        Returns (positions copied, bytes moved, epoch to finalize at).
        Raises a ReproError (DataLossError included) when no consistent
        set of k blocks is reachable — the caller unwinds and the
        stripe stays at its old placement.
        """
        data: dict[int, StateSnapshot] = {}
        epochs: list[int] = []
        for j in range(self.n):
            data[j] = self._rpc(old_slots[j], "get_state",
                                self._addr(stripe, j))
            epochs.append(
                self._rpc(old_slots[j], "probe", self._addr(stripe, j))[3]
            )
        # Adopt a crashed migration/recovery's choice (RECONS pickup),
        # else run recovery's consistent-set oracle.  Our L1 locks stop
        # new swaps, so no wait loop is needed: the snapshots are final.
        cset: frozenset[int] | None = None
        init = {j for j in range(self.n) if data[j].opmode is OpMode.INIT}
        for h in range(self.n):
            if data[h].opmode is OpMode.RECONS and data[h].recons_set is not None:
                cset = frozenset(data[h].recons_set) - init
                break
        if cset is None:
            cset = find_consistent(data, self.k)
        if len(cset) < self.k:
            raise ReproError(
                f"stripe {stripe}: only {len(cset)} consistent blocks at the "
                f"old placement (k={self.k}); migration aborted"
            )
        available = {j: data[j].block for j in cset if data[j].block is not None}
        blocks = self.meta.code.reconstruct_stripe(available)
        # Copy targets: every moved pair, plus same-slot pairs whose
        # bytes were outside the consistent set (their content would
        # otherwise diverge from the decoded stripe).  Same-slot pairs
        # *inside* the set keep their bytes — nothing moves for them.
        copied = 0
        bytes_moved = 0
        for j in range(self.n):
            if old_slots[j] == new_slots[j] and j in cset:
                continue
            epoch = self._rpc(
                new_slots[j], "reconstruct", self._addr(stripe, j),
                cset, blocks[j],
            )
            epochs.append(epoch)
            copied += 1
            bytes_moved += int(len(blocks[j]))
        return copied, bytes_moved, max(epochs) + 1

    def _finish(
        self,
        stripe: int,
        gen_from: int,
        gen_to: int,
        result: str,
        copied: int,
        bytes_moved: int,
    ) -> None:
        if self.metrics.enabled:
            self.metrics.counter(
                "rebalance_migrations_total", result=result
            ).inc()
            if bytes_moved:
                self.metrics.counter("rebalance_bytes_total").inc(bytes_moved)
            self.metrics.gauge("placement_generation").set(
                self.placement.latest_gen
            )
        if self.tracer.enabled:
            self.tracer.emit(
                self.client_id, "rebalance.end", stripe=stripe,
                gen_from=gen_from, gen_to=gen_to, result=result,
                copied=copied, bytes=bytes_moved,
            )

    def migrate_all(self, stripes) -> RebalanceReport:
        """One pass over ``stripes``; yielded/failed stripes are left
        for a later pass (or for ordinary recovery) — a single failed
        migration must never stall the rest of the rebalance."""
        report = RebalanceReport()
        for stripe in stripes:
            try:
                report.records.append(self.migrate(stripe))
            except ReproError:
                # Commit-phase RPC exhaustion: the stripe is left for
                # monitor/recovery (RECONS pickup) or a later pass; the
                # quiescence invariants will say if it never healed.
                report.records.append(
                    MigrationRecord(
                        stripe,
                        self.placement.committed_gen(stripe),
                        self.placement.latest_gen,
                        "failed",
                    )
                )
        return report
