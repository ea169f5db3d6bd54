"""Quiescence invariant pack for crash-schedule exploration.

After any sequence of crashes, companion faults and repairs, a stripe
that the monitor/recovery/GC pipeline has driven to quiescence must
look as if nothing ever happened.  This module states that as six
checkable stripe invariants plus a history invariant:

* ``no_stripe_locked`` — every position is UNL: no recovery died
  holding (or leaking) locks, no release was dropped.
* ``all_norm``         — no position is INIT garbage or RECONS limbo.
* ``epochs_agree``     — all positions carry one epoch (recovery's
  finalize is all-or-nothing at quiescence).
* ``parity``           — the blocks satisfy the erasure-code equations.
* ``gc_collectable``   — every tid still in a recentlist/oldlist is
  present at its data position and at every redundant position, i.e.
  its write landed everywhere it was addressed.  This is the G-set
  property ``find_consistent`` relies on and the precondition for any
  later GC pass to collect the tid; a tid violating it belongs to a
  partial write recovery failed to resolve.
* ``tid_consistency``  — recovery's own oracle agrees: the maximal
  consistent set is all n positions.
* ``register_history`` — the recorded operation history satisfies the
  multi-writer regular-register condition (§3.1).

Elastic (placement-mode) clusters add two more:

* ``placement_agrees`` — at quiescence the map, the directory and the
  nodes tell one story: every stripe is committed at the latest map
  generation, its slots are drawn from that generation's member pool,
  each serving node's recorded generation matches, and no serving
  position is retired.
* ``rebalance_bytes_bounded`` — a soak-level accounting check (see
  :func:`check_rebalance_bytes`): bytes moved by rebalancing stay
  within a small constant factor of the bytes owned by the stripes
  whose placement actually changed.

The crash explorer (``repro.chaos.explorer``) runs the pack after every
schedule; targeted tests use individual checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.registers import Op, check_regular
from repro.client.consistency import find_consistent
from repro.ids import BlockAddr, Tid
from repro.storage.state import (
    BlockState,
    LockMode,
    OpMode,
    StateSnapshot,
    content_fingerprint,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cluster imports us not)
    from repro.core.cluster import Cluster

#: Every stripe-level invariant, in check order.
STRIPE_INVARIANTS: tuple[str, ...] = (
    "no_stripe_locked",
    "all_norm",
    "epochs_agree",
    "parity",
    "gc_collectable",
    "tid_consistency",
)


@dataclass(frozen=True)
class InvariantViolation:
    """One failed invariant; ``stripe`` is None for history checks."""

    invariant: str
    stripe: int | None
    detail: str

    def __str__(self) -> str:
        where = f"stripe {self.stripe}" if self.stripe is not None else "history"
        return f"[{self.invariant}] {where}: {self.detail}"


def stripe_states(
    cluster: "Cluster", stripe: int, volume: str | None = None
) -> dict[int, BlockState]:
    """Direct (non-RPC) per-position state of one stripe, by position."""
    volume = volume or cluster.volume_name
    out: dict[int, BlockState] = {}
    for j in range(cluster.code.n):
        slot = cluster.slot_of(stripe, j)
        out[j] = cluster.node_for_slot(slot).peek(BlockAddr(volume, stripe, j))
    return out


def _snapshots(states: dict[int, BlockState]) -> dict[int, StateSnapshot]:
    return {
        j: StateSnapshot(
            opmode=st.opmode,
            recons_set=st.recons_set,
            oldlist=frozenset(st.oldlist),
            recentlist=frozenset(st.recentlist),
            block=None if st.opmode is OpMode.INIT else st.block,
        )
        for j, st in states.items()
    }


def _tid_positions(tid: Tid, k: int, n: int) -> set[int]:
    """Positions a write with this tid addressed: its data block plus
    every redundant block."""
    return {tid.index} | set(range(k, n))


def check_stripe(
    cluster: "Cluster",
    stripe: int,
    volume: str | None = None,
    invariants: tuple[str, ...] = STRIPE_INVARIANTS,
) -> list[InvariantViolation]:
    """Run the selected stripe invariants; returns all violations."""
    k, n = cluster.code.k, cluster.code.n
    states = stripe_states(cluster, stripe, volume)
    out: list[InvariantViolation] = []

    def fail(invariant: str, detail: str) -> None:
        out.append(InvariantViolation(invariant, stripe, detail))

    if "no_stripe_locked" in invariants:
        locked = {
            j: st.lmode.value
            for j, st in states.items()
            if st.lmode is not LockMode.UNL
        }
        if locked:
            holders = {j: states[j].lid for j in locked}
            fail(
                "no_stripe_locked",
                f"positions not UNL: {locked} (holders {holders})",
            )
    if "all_norm" in invariants:
        off = {
            j: st.opmode.value
            for j, st in states.items()
            if st.opmode is not OpMode.NORM
        }
        if off:
            fail("all_norm", f"positions out of NORM: {off}")
    if "epochs_agree" in invariants:
        epochs = {j: st.epoch for j, st in states.items()}
        if len(set(epochs.values())) > 1:
            fail("epochs_agree", f"divergent epochs: {epochs}")
    if "parity" in invariants:
        if all(st.opmode is OpMode.NORM for st in states.values()):
            blocks = [states[j].block for j in range(n)]
            if not cluster.code.is_consistent_stripe(blocks):
                fail("parity", "blocks violate the code equations")
        else:
            fail("parity", "unverifiable: stripe has non-NORM positions")
    if "gc_collectable" in invariants:
        listed: dict[Tid, set[int]] = {}
        for j, st in states.items():
            for tid in st.recent_tids() | st.old_tids():
                listed.setdefault(tid, set()).add(j)
        for tid in sorted(listed, key=str):
            missing = sorted(
                pos
                for pos in _tid_positions(tid, k, n)
                if states[pos].opmode is OpMode.NORM
                and tid not in states[pos].recent_tids()
                and tid not in states[pos].old_tids()
            )
            if missing:
                fail(
                    "gc_collectable",
                    f"tid {tid} (listed at {sorted(listed[tid])}) missing "
                    f"from positions {missing}: its write never landed there",
                )
    if "tid_consistency" in invariants:
        cset = find_consistent(_snapshots(states), k)
        if cset != frozenset(range(n)):
            fail(
                "tid_consistency",
                f"maximal consistent set {sorted(cset)} != all {n} positions",
            )
    if "fingerprints_match" in invariants:
        # Opt-in (not in STRIPE_INVARIANTS): at quiescence every NORM
        # block's bytes must match the digest sealed at its last
        # legitimate mutation — any split means at-rest corruption
        # survived repair.  Positions without a fingerprint (never
        # sealed) are unverifiable, not wrong.
        stale = {
            j: st.fingerprint
            for j, st in states.items()
            if st.opmode is OpMode.NORM
            and st.fingerprint is not None
            and content_fingerprint(st.block) != st.fingerprint
        }
        if stale:
            fail(
                "fingerprints_match",
                f"positions with stale content fingerprints: {sorted(stale)}",
            )
    if "placement_agrees" in invariants:
        placement = getattr(cluster, "placement", None)
        if placement is not None:
            vol = volume or cluster.volume_name
            gen, slots = placement.lookup(stripe)
            latest = placement.latest_gen
            if gen != latest:
                fail(
                    "placement_agrees",
                    f"committed at generation {gen}, map is at {latest}: "
                    "migration unfinished at quiescence",
                )
            pool = placement.members(gen)
            off_pool = [s for s in slots if s not in pool]
            if off_pool:
                fail(
                    "placement_agrees",
                    f"slots {off_pool} outside generation {gen}'s pool",
                )
            for j, slot in enumerate(slots):
                node = cluster.node_for_slot(slot)
                recorded = node.stripe_generation(vol, stripe)
                if recorded is not None and recorded != gen:
                    fail(
                        "placement_agrees",
                        f"node {node.node_id} (pos {j}) records generation "
                        f"{recorded}, map committed {gen}",
                    )
                if recorded is None and gen != placement.BASE_GEN:
                    fail(
                        "placement_agrees",
                        f"node {node.node_id} (pos {j}) has no generation "
                        f"record but the stripe is committed at {gen}",
                    )
                if node.is_retired(BlockAddr(vol, stripe, j)):
                    fail(
                        "placement_agrees",
                        f"node {node.node_id} (pos {j}) serves the stripe "
                        "but holds a retire marker for it",
                    )
    return out


def check_rebalance_bytes(
    bytes_moved: int,
    moved_stripes: int,
    width: int,
    block_size: int,
    factor: float = 2.0,
) -> list[InvariantViolation]:
    """``rebalance_bytes_bounded``: bytes moved by rebalancing must not
    exceed ``factor`` times the bytes owned by the stripes whose
    placement changed (``moved_stripes * width * block_size``).

    The slack covers crash-resumed migrations (a stripe copied again
    after a mid-migration client crash) — what it forbids is the
    pathological full reshuffle an inconsistent-hash map would produce,
    the Rashmi-et-al. hazard of rebalance traffic itself degrading the
    cluster.
    """
    owned = moved_stripes * width * block_size
    if bytes_moved > factor * owned:
        return [
            InvariantViolation(
                "rebalance_bytes_bounded",
                None,
                f"moved {bytes_moved} bytes > {factor:g} x {owned} owned "
                f"({moved_stripes} moved stripes x {width} x {block_size})",
            )
        ]
    return []


def check_history(
    history: list[Op], initial: object = None
) -> list[InvariantViolation]:
    """Regular-register check as an invariant (stripe None)."""
    return [
        InvariantViolation("register_history", None, str(v))
        for v in check_regular(history, initial)
    ]


def check_no_corruption_served(
    history: list[Op], initial: object = None
) -> list[InvariantViolation]:
    """``no_corruption_served``: every read returned bytes some write
    actually produced.

    Deliberately weaker than (and independent of) the regular-register
    check: it ignores ordering entirely and asks only whether each read
    value appears in the set of values ever written to that key (or the
    initial value).  A single flipped bit served to an application
    fabricates a value *no* writer produced, which this catches even in
    histories whose timing the register check cannot constrain."""
    legitimate: dict[object, set[object]] = {}
    for op in history:
        if op.kind == "write":
            legitimate.setdefault(op.key, set()).add(op.value)
    out: list[InvariantViolation] = []
    for op in history:
        if op.kind != "read":
            continue
        allowed = legitimate.get(op.key, set())
        if op.value != initial and op.value not in allowed:
            out.append(
                InvariantViolation(
                    "no_corruption_served",
                    None,
                    f"read of key {op.key!r} returned {op.value!r}, which "
                    f"no write produced ({len(allowed)} legitimate values)",
                )
            )
    return out


def check_quiescence(
    cluster: "Cluster",
    stripes: list[int] | range,
    history: list[Op] | None = None,
    initial: object = None,
    invariants: tuple[str, ...] = STRIPE_INVARIANTS,
    volume: str | None = None,
) -> list[InvariantViolation]:
    """The full pack: every stripe invariant plus the history check."""
    out: list[InvariantViolation] = []
    for stripe in stripes:
        out.extend(check_stripe(cluster, stripe, volume, invariants))
    if history is not None:
        out.extend(check_history(history, initial))
    return out


def check_directory(cluster: "Cluster") -> list[InvariantViolation]:
    """Replicated-directory invariants (replicated mode only).

    ``directory_agrees``
        At quiescence (after anti-entropy) every *live* replica's
        committed register map is identical, and the quorum-resolved
        binding for each slot matches that shared state.

    ``no_split_brain``
        Across every replica's full acceptance log — including crashed
        replicas, whose state survives for the audit — no two distinct
        node ids were ever accepted for the same (slot, incarnation).
        This is the property the consensus tags exist to enforce: a
        violation means two partitions each minted a replacement.
    """
    out: list[InvariantViolation] = []
    replicas = getattr(cluster, "directory_nodes", [])
    if not replicas:
        return out
    live = [
        replica
        for replica in replicas
        if not cluster.transport.is_crashed(replica.replica_id)
    ]
    states = {r.replica_id: r.committed_state() for r in live}
    if states:
        reference_id, reference = next(iter(states.items()))
        for replica_id, state in states.items():
            if state != reference:
                missing = set(reference) ^ set(state)
                differing = {
                    key
                    for key in set(reference) & set(state)
                    if reference[key] != state[key]
                }
                out.append(InvariantViolation(
                    "directory_agrees", None,
                    f"{replica_id} diverges from {reference_id}: "
                    f"{len(missing)} keys missing, "
                    f"{sorted(differing)} differ",
                ))
        qdirectory = getattr(cluster, "qdirectory", None)
        if qdirectory is not None and not out:
            for key, (_tag, value) in reference.items():
                if key[0] != "slot":
                    continue
                resolved = qdirectory.lookup(key[1])
                if resolved != value:
                    out.append(InvariantViolation(
                        "directory_agrees", None,
                        f"slot {key[1]}: quorum resolves {resolved} but "
                        f"replicas committed {value}",
                    ))
    # no_split_brain: one node id per (slot, incarnation), ever accepted.
    accepted: dict[tuple[int, int], set[str]] = {}
    for replica in replicas:
        for slot, incarnation, node_id in replica.accepted_bindings():
            accepted.setdefault((slot, incarnation), set()).add(node_id)
    for (slot, incarnation), node_ids in sorted(accepted.items()):
        if len(node_ids) > 1:
            out.append(InvariantViolation(
                "no_split_brain", slot,
                f"incarnation {incarnation} accepted as "
                f"{sorted(node_ids)}",
            ))
    return out
