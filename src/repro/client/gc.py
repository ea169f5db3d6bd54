"""Two-phase garbage collection of write-id lists (Fig. 7, §3.9).

Storage nodes accumulate the tids of past writes in ``recentlist``;
left unchecked this is unbounded memory (and grows the §6.5 overhead).
The GC runs at a client in two phases per round, in this order, each
phase one fan-out that sends every node a single frame
``{addr: (gen, (tids,))}`` covering all of its stripes with work:

1. ``gc_old``   — discard from each node's *oldlist* the tids this
   client confirmed complete *two* rounds ago;
2. ``gc_recent``— move last round's completed tids from *recentlist*
   to *oldlist*.

The two-phase structure is what makes client crashes harmless: a tid
is only ever discarded after a full round in oldlist, so if the lists
diverge across nodes, "if tid is in some oldlist of any node, then the
write has occurred at all nodes" — exactly the property
``find_consistent`` relies on (its G set).
"""

from __future__ import annotations

import threading

from repro.client.protocol import ProtocolClient
from repro.ids import Tid


class GcManager:
    """Runs Fig. 7's collect_garbage task for one client."""

    def __init__(self, client: ProtocolClient):
        self.client = client
        self.source = f"gc:{client.client_id}"
        # old[(stripe, j)]: tids moved to oldlists last round, to discard next.
        self._old: dict[tuple[int, int], set[Tid]] = {}
        self._lock = threading.Lock()
        self.rounds = 0

    def run_once(self) -> int:
        """One GC round over every stripe with pending work.

        Each phase is one fan-out that sends every node a single frame
        covering all of its (stripe, position) batches: first all
        ``gc_old`` frames, then all ``gc_recent`` frames.  Returns the
        number of node frames answered.  A batch whose block is locked
        or out of NORM mode (recovery in progress) is refused and rolls
        over to the next round — GC must never interfere with recovery.
        """
        client = self.client
        with client._gc_lock:
            pending = client.gc_pending
            client.gc_pending = {}
        recent = {
            (stripe, j): tids
            for stripe, per in pending.items()
            for j, tids in per.items()
        }
        with self._lock:
            old = self._old
            self._old = {}
        # A batch is missed unless its node answered True: a refusal
        # (locked, not NORM, stale placement) or a frame that was shed,
        # timed out (the node's lists survive, so dropping the batch
        # would strand tids forever) or found its node gone (recovery
        # resets the lists anyway); nothing is re-sent within the round.
        old_frames, old_missed = self._phase("gc_old", old)
        cp = client.crashpoints
        if cp.enabled and (old or recent):
            # A crash here is the two-phase claim's worst case: the
            # older generation already discarded, the newer one still
            # in recentlists — and still collectable by any client.
            cp.hit(
                "gc.between_phases",
                stripes=sorted({stripe for stripe, _ in old.keys() | recent}),
            )
        recent_frames, recent_missed = self._phase("gc_recent", recent)
        # Batches that went through gc_recent become next round's gc_old
        # input; batches a phase missed are retried as-is next round.
        with client._gc_lock:
            for stripe, j in recent_missed:
                client.gc_pending.setdefault(stripe, {}).setdefault(
                    j, set()
                ).update(recent[stripe, j])
        with self._lock:
            for key, tids in old.items():
                if key in old_missed:
                    self._old.setdefault(key, set()).update(tids)
            for key, tids in recent.items():
                if key not in recent_missed:
                    self._old.setdefault(key, set()).update(tids)
        processed = old_frames + recent_frames
        self.rounds += 1
        metrics = client.metrics
        if metrics.enabled:
            metrics.counter("gc_rounds_total").inc()
            metrics.counter("gc_batches_total").inc(processed)
        if processed and client.tracer.enabled:
            client.tracer.emit(self.source, "gc.round", batches=processed)
        return processed

    def _phase(
        self, op: str, batches: dict[tuple[int, int], set[Tid]]
    ) -> tuple[int, set[tuple[int, int]]]:
        """One GC phase: ``op`` as one frame per node.  Returns the
        frames answered and the batches not applied."""
        answered, results = self.client.fan_out_frames(
            "gc", op, {key: (tids,) for key, tids in batches.items()}
        )
        return answered, {key for key, ok in results.items() if ok is not True}

    def pending_tids(self) -> int:
        """Total tids awaiting collection (for overhead experiments)."""
        with self.client._gc_lock:
            recent = sum(
                len(tids)
                for per in self.client.gc_pending.values()
                for tids in per.values()
            )
        with self._lock:
            old = sum(len(tids) for tids in self._old.values())
        return recent + old
