"""Named crash/pause points inside the client protocol.

The AJX correctness argument lives in the states a *partially
completed* operation leaves behind: a write that swapped but never
added, a recovery that locked but never finalized, a GC round that
discarded oldlists but never advanced recentlists.  The chaos soaks
reach such states only by seed luck; the crash-point registry reaches
them *by construction*.

``protocol.py`` / ``gc.py`` / ``monitor.py`` call ``hit(point)`` at
each named step.  Like the obs guard (``NULL_REGISTRY``), the default
plan is a shared null object with ``enabled = False``, so the hot-path
cost when no harness is attached is one attribute check:

    cp = self.crashpoints
    if cp.enabled:
        cp.hit("write.after_swap", stripe=stripe)

A harness arms a point with either the ``"crash"`` action — the n-th
hit raises :class:`~repro.errors.ClientCrash`, a ``BaseException``
that models fail-stop death (no cleanup handlers run) — or a callable
*pause* action, invoked synchronously at the point, which lets a test
run arbitrary concurrent activity (a second writer, a full recovery)
while the victim is frozen mid-step, then resume it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ClientCrash

#: The catalogue of instrumented points: name -> (paper step, what a
#: crash there leaves behind).  docs/FAULTS.md §8 renders this as the
#: crash-point taxonomy table; the explorer sweeps every entry.
CRASH_POINT_CATALOGUE: dict[str, tuple[str, str]] = {
    "write.after_swap": (
        "WRITE Fig. 5, after line 3: the swap round answered (every data "
        "node's swap frame), before any add",
        "each swapped data node holds its new tid/value, no redundant "
        "node does; recovery rolls the write back (or forward, when the "
        "data blocks alone are consistent)",
    ),
    "write.after_add": (
        "WRITE Fig. 5, lines 4-6, after the i-th serial add "
        "(hit number selects which add-subset completed)",
        "a proper subset of redundant nodes absorbed the delta; recovery "
        "rolls forward iff a redundant node has the tid, else back",
    ),
    "write.before_note_completed": (
        "WRITE Fig. 5, after the last add, before the client records the "
        "tid for GC",
        "write is durable at all n nodes but its tid is never handed to "
        "GC by this client; stays in recentlists until another client's "
        "recovery or GC collects it",
    ),
    "recovery.phase1.after_lock": (
        "RECOVERY Fig. 6 phase 1, after the i-th trylock succeeded "
        "(hit number selects how many locks were taken)",
        "a prefix of nodes left L1-locked by a dead client; locks expire "
        "to EXP and the monitor re-triggers recovery",
    ),
    "recovery.after_phase1": (
        "RECOVERY Fig. 6, between phase 1 (setlock) and phase 2's state "
        "fetch",
        "all n nodes L1-locked, no state read yet; locks expire to EXP",
    ),
    "recovery.phase2.after_weaken": (
        "RECOVERY Fig. 6 phase 2 wait-loop, after weakening redundant "
        "locks to L0 (waiting for in-flight adds), before re-fetching "
        "state",
        "mixed L1/L0 locks from a dead client; all expire to EXP",
    ),
    "recovery.phase3.before_reconstruct": (
        "RECOVERY Fig. 6 phase 3, consistent set chosen, before any "
        "reconstruct RPC",
        "nodes outside the consistent set still stale; locks expire and "
        "the next recovery repeats the same find_consistent choice",
    ),
    "recovery.phase3.before_finalize": (
        "RECOVERY Fig. 6 phase 3, blocks reconstructed (RECONS mode), "
        "before any finalize RPC",
        "nodes sit in RECONS with recons_set recorded; the next recovery "
        "finalizes them without redoing the decode",
    ),
    "gc.between_phases": (
        "GC Fig. 7, between phase 1 (every gc_old frame) and phase 2 "
        "(every gc_recent frame) of one round, for all of its stripes",
        "oldlists already dropped the older generation, recentlists "
        "still hold the newer one; the G-set invariant holds and any "
        "later GC pass collects the stranded tids",
    ),
    "monitor.before_recover": (
        "§3.10 monitor, damage detected, before _start_recovery",
        "damage is left exactly as found; the next sweep re-detects it",
    ),
    "rebalance.before_copy": (
        "REBALANCE, stripe locked L1 at old and new placements, before "
        "any state fetch or copy",
        "locks expire to EXP; nothing moved, map generation unchanged — "
        "ordinary recovery at the old placement heals the locks and the "
        "next rebalance pass redoes the migration from scratch",
    ),
    "rebalance.before_commit": (
        "REBALANCE, blocks copied to the new placement (RECONS), before "
        "commit_stripe flips the map",
        "the stripe still serves at its old placement (readable "
        "degraded while locks sit EXP); copied RECONS images at the new "
        "placement are orphaned until a re-migration overwrites them",
    ),
    "directory.before_prepare": (
        "DIRECTORY RMW, tag drawn, before the prepare fan-out",
        "nothing reached any replica; the next proposer runs the same "
        "transform from the same committed state",
    ),
    "directory.before_commit": (
        "DIRECTORY RMW, majority promised, value computed (a remap has "
        "already provisioned its replacement node), before the accept "
        "fan-out",
        "replicas hold promises but no acceptance; the provisioned "
        "INIT node is orphaned until the next proposer recomputes the "
        "same deterministic binding and drives it through",
    ),
    "directory.before_apply": (
        "DIRECTORY RMW, majority accepted (the value is *chosen*), "
        "before the apply fan-out",
        "no replica has committed; the next proposer's prepare quorum "
        "surfaces the chosen value and must adopt it — the "
        "no_split_brain-critical window",
    ),
    "rebalance.after_commit": (
        "REBALANCE, map committed and old pairs retired, before the "
        "epoch-bumping finalize of the new placement",
        "clients refetch and find the new placement in RECONS/EXP; "
        "ordinary recovery's RECONS pickup path finalizes it in place "
        "(no rebalancer involvement needed)",
    ),
}


@dataclass
class _Arm:
    point: str
    hit: int
    action: Any  # "crash" | Callable[[str, int, dict], None]
    fired: bool = False


class CrashPlan:
    """A mutable set of armed crash/pause points plus hit counters.

    One plan is attached per victim client (``client.crashpoints``);
    its GC manager and monitor consult the same plan, so a single arm
    covers the whole client stack.  Hit counters always advance, armed
    or not, which lets tests assert that a point was *reached*.
    """

    enabled = True

    def __init__(self) -> None:
        self._arms: dict[str, _Arm] = {}
        self.hits: dict[str, int] = {}
        self._lock = threading.Lock()

    def arm(
        self,
        point: str,
        hit: int = 1,
        action: str | Callable[[str, int, dict], None] = "crash",
    ) -> None:
        """Arm ``point`` to fire on its ``hit``-th execution.

        ``action`` is ``"crash"`` (raise :class:`ClientCrash`) or a
        callable pause hook ``fn(point, hit_count, detail)`` run
        synchronously at the point.
        """
        if point not in CRASH_POINT_CATALOGUE:
            raise ValueError(f"unknown crash point {point!r}")
        if hit < 1:
            raise ValueError("hit counts are 1-based")
        with self._lock:
            self._arms[point] = _Arm(point, hit, action)

    def disarm(self, point: str) -> None:
        with self._lock:
            self._arms.pop(point, None)

    def hit(self, point: str, **detail: Any) -> None:
        """Record one execution of ``point``; fire if armed for it."""
        with self._lock:
            count = self.hits.get(point, 0) + 1
            self.hits[point] = count
            arm = self._arms.get(point)
            if arm is None or arm.fired or count != arm.hit:
                return
            arm.fired = True
            action = arm.action
        if action == "crash":
            raise ClientCrash(point, count, detail)
        action(point, count, detail)

    def fired(self, point: str) -> bool:
        with self._lock:
            arm = self._arms.get(point)
            return bool(arm and arm.fired)


class _NullCrashPlan:
    """Shared do-nothing plan; ``enabled`` is False so instrumented
    call sites skip even building the kwargs."""

    enabled = False
    hits: dict[str, int] = {}

    def hit(self, point: str, **detail: Any) -> None:  # pragma: no cover
        return

    def fired(self, point: str) -> bool:
        return False


NULL_CRASHPOINTS = _NullCrashPlan()
