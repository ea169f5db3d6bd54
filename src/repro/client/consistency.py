"""``find_consistent`` — the consistency oracle of recovery (Fig. 6).

Given per-node state snapshots, find a (maximal) set S of stripe
positions whose blocks are mutually consistent under the erasure code,
judged purely from write-id bookkeeping:

1. every member is in NORM mode (INIT garbage and RECONS limbo are
   excluded from the *search*; the pickup path reuses a stored set);
2. all redundant members saw the same set of still-pending writes:
   ``f(r) = f(s)`` where ``f(i) = tids(recentlist_i) - G`` and ``G``
   is the union of the members' oldlists (a tid in *any* oldlist
   belongs to a write that completed everywhere — the GC invariant);
3. for each data member j, the pending writes redundant members saw
   from j equal j's own pending writes: ``H(r, j) = f(j)``.

Why this works: a write's swap and adds all record the same tid.  If a
set of blocks agree on exactly which tids they have absorbed, then each
block equals its code equation applied to the same write history, so
the erasure-code relation holds among them.

The spec asks for a *maximal* such S.  Subset enumeration is
exponential in n, so :func:`find_consistent` shrinks the NORM set
instead: it drops the data members condition (3) rules out, and where
the redundant members disagree it branches on each signature class,
memoized on the member set.  The result is a maximum set, not just a
fixpoint.  For the small n used in tests,
:func:`find_consistent_exhaustive` cross-checks this.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping

from repro.ids import Tid
from repro.storage.state import OpMode, StateSnapshot, tids


def _pending(
    snapshot: StateSnapshot, garbage: set[Tid]
) -> frozenset[Tid]:
    """f_S(i): tids in the recentlist not known-complete."""
    return frozenset(tids(snapshot.recentlist) - garbage)


def _garbage(members: set[int], data: Mapping[int, StateSnapshot]) -> set[Tid]:
    """G_S: union of the members' oldlists."""
    out: set[Tid] = set()
    for j in members:
        out |= tids(data[j].oldlist)
    return out


def is_consistent_set(
    members: set[int] | frozenset[int],
    data: Mapping[int, StateSnapshot],
    k: int,
) -> bool:
    """Check conditions (1)-(3) of Fig. 6's find_consistent for ``members``."""
    if not members:
        return True
    if any(data[j].opmode is not OpMode.NORM for j in members):
        return False
    garbage = _garbage(set(members), data)
    pending = {j: _pending(data[j], garbage) for j in members}
    redundant = [j for j in members if j >= k]
    data_members = [j for j in members if j < k]
    # (2) all redundant members agree on the pending-write set.
    signatures = {pending[r] for r in redundant}
    if len(signatures) > 1:
        return False
    # (3) per data member, redundant members saw exactly its pending writes.
    if redundant:
        signature = next(iter(signatures))
        by_origin: dict[int, set[Tid]] = defaultdict(set)
        for tid in signature:
            by_origin[tid.index].add(tid)
        for j in data_members:
            if frozenset(by_origin.get(j, set())) != pending[j]:
                return False
        # A redundant member must not have absorbed writes from data
        # positions whose own pending set it contradicts; positions not
        # in S are unconstrained (their blocks are not used together).
    return True


def _refine(
    members: frozenset[int],
    data: Mapping[int, StateSnapshot],
    k: int,
    memo: dict[frozenset[int], frozenset[int]],
) -> frozenset[int]:
    """The largest subset of ``members`` reached by shrinking it until
    conditions (2)-(3) hold (condition (1) is guaranteed by
    construction), memoized on the member set.

    Where redundant members disagree (2), no class is known in advance
    to lead to the largest set, so each class is tried, largest first.
    Exactness: a maximum consistent set S inside ``members`` has its
    redundant members in one class and none of its data members fails
    (3), because the superset's larger garbage set drops the same tids
    from both sides of each comparison; so one branch keeps all of S."""
    if members in memo:
        return memo[members]
    result = frozenset()
    if members:
        garbage = _garbage(set(members), data)
        pending = {j: _pending(data[j], garbage) for j in members}
        redundant = {j for j in members if j >= k}
        classes: dict[frozenset[Tid], list[int]] = defaultdict(list)
        for r in sorted(redundant):
            classes[pending[r]].append(r)
        if len(classes) > 1:
            for keep in sorted(
                classes.values(), key=lambda nodes: (-len(nodes), min(nodes))
            ):
                candidate = _refine(
                    members - (redundant - set(keep)), data, k, memo
                )
                if len(candidate) > len(result):
                    result = candidate
        else:
            # (3): drop data members whose pending writes the redundant
            # class has not (fully) absorbed.
            bad: set[int] = set()
            if redundant:
                by_origin: dict[int, set[Tid]] = defaultdict(set)
                for tid in next(iter(classes)):
                    by_origin[tid.index].add(tid)
                bad = {
                    j
                    for j in members
                    if j < k and frozenset(by_origin.get(j, set())) != pending[j]
                }
            result = _refine(members - bad, data, k, memo) if bad else members
    memo[members] = result
    return result


def find_consistent(
    data: Mapping[int, StateSnapshot], k: int
) -> frozenset[int]:
    """Maximum consistent set (see module docstring): the refinement of
    every NORM position, or of the NORM data positions alone, whichever
    is larger.  A maximum set with a redundant member is reached from
    the first; one without is all NORM data positions, the second."""
    norm = frozenset(
        j
        for j, snap in data.items()
        if snap.opmode is OpMode.NORM and snap.block is not None
    )
    memo: dict[frozenset[int], frozenset[int]] = {}
    best: frozenset[int] = frozenset()
    for seed in (norm, frozenset(j for j in norm if j < k)):
        candidate = _refine(seed, data, k, memo)
        if len(candidate) > len(best):
            best = candidate
    if not is_consistent_set(best, data, k):  # defensive: never return junk
        raise AssertionError(f"refinement produced inconsistent set {sorted(best)}")
    return best


def find_consistent_exhaustive(
    data: Mapping[int, StateSnapshot], k: int
) -> frozenset[int]:
    """Exact maximum consistent set by subset enumeration (tests only)."""
    norm = sorted(
        j
        for j, snap in data.items()
        if snap.opmode is OpMode.NORM and snap.block is not None
    )
    best: frozenset[int] = frozenset()
    for mask in range(1 << len(norm)):
        members = {norm[i] for i in range(len(norm)) if mask >> i & 1}
        if len(members) > len(best) and is_consistent_set(members, data, k):
            best = frozenset(members)
    return best
