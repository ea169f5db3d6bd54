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

The rebalancer drives a :class:`~repro.client.protocol.ProtocolClient`
and sends every RPC as one of its one-position frame rounds,
``rpc(..., slot=)``: the same breaker gate, health scoring, shed
backoff and retry budget as any other agent, re-sent through sheds,
timeouts and remaps within the round, with the slot looked up fresh on
every re-send so a remap is followed.  The calls are issued sequentially and carry *no*
placement-generation stamp: the rebalancer is the one party that must
reach old placements (and retired blocks) by design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.client.consistency import find_consistent
from repro.crashpoints import NULL_CRASHPOINTS
from repro.errors import NodeBusyError, NodeUnavailableError, ReproError
from repro.placement.map import PlacementMap
from repro.storage.state import LockMode, OpMode, StateSnapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.client.protocol import ProtocolClient

#: Whole lock-all passes before a contended migration yields.
_LOCK_ATTEMPTS = 5


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
        client: ProtocolClient,
        placement: PlacementMap,
        *,
        crashpoints=NULL_CRASHPOINTS,
    ):
        self.client = client
        self.placement = placement
        self.crashpoints = crashpoints

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    @property
    def client_id(self) -> str:
        return self.client.client_id

    @property
    def n(self) -> int:
        return self.client.n

    @property
    def k(self) -> int:
        return self.client.k

    def _rpc(self, stripe: int, j: int, slot: int, op: str, *args):
        """One migration RPC to position ``j`` of ``stripe`` at ``slot``,
        repeated through sheds, timeouts and remaps while the retry
        budget lasts; every op used here is idempotent or replay-safe."""
        return self.client.rpc(
            "rebalance", stripe, j, op, *args,
            retry_on=(NodeBusyError, NodeUnavailableError), budget=True,
            slot=slot,
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
                self._rpc(stripe, j, slot, "set_generation", target_gen)
            self._finish(stripe, committed, target_gen, "committed", 0, 0)
            return MigrationRecord(stripe, committed, target_gen, "committed")
        tracer = self.client.tracer
        if tracer.enabled:
            tracer.emit(self.client_id, "rebalance.begin", stripe=stripe,
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
            self._rpc(stripe, j, new_slots[j], "set_generation", target_gen)
        for j in range(self.n):
            if old_slots[j] != new_slots[j]:
                self._rpc(stripe, j, old_slots[j], "retire", target_gen)
        if cp.enabled:
            cp.hit("rebalance.after_commit", stripe=stripe, gen=target_gen)
        # Epoch bump: from here every delta stamped with the old epoch
        # is rejected by the nodes' ordinary stale-epoch check.
        for j in range(self.n):
            self._rpc(stripe, j, new_slots[j], "finalize", new_epoch)
        for j in range(self.n):
            if old_slots[j] != new_slots[j]:
                self._rpc(stripe, j, old_slots[j], "setlock", LockMode.UNL,
                          self.client_id)
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
                        stripe, j, slot, "trylock", LockMode.L1,
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
            self.client._sleep_backoff(attempt)
        return None

    def _release(
        self, stripe: int, acquired: list[tuple[int, int, LockMode]]
    ) -> None:
        for slot, j, old in acquired:
            self._rpc(stripe, j, slot, "setlock", old, self.client_id)

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
            data[j] = self._rpc(stripe, j, old_slots[j], "get_state")
            epochs.append(self._rpc(stripe, j, old_slots[j], "probe")[3])
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
        blocks = self.client.code.reconstruct_stripe(available)
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
                stripe, j, new_slots[j], "reconstruct", cset, blocks[j]
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
        metrics = self.client.metrics
        if metrics.enabled:
            metrics.counter("rebalance_migrations_total", result=result).inc()
            if bytes_moved:
                metrics.counter("rebalance_bytes_total").inc(bytes_moved)
            metrics.gauge("placement_generation").set(
                self.placement.latest_gen
            )
        tracer = self.client.tracer
        if tracer.enabled:
            tracer.emit(
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
