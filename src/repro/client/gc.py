"""Two-phase garbage collection of write-id lists (Fig. 7, §3.9).

Storage nodes accumulate the tids of past writes in ``recentlist``;
left unchecked this is unbounded memory (and grows the §6.5 overhead).
The GC runs at a client in two phases per round, in this order:

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
from repro.errors import NodeBusyError, NodeUnavailableError
from repro.ids import Tid
from repro.net.rpc import pfor


class GcManager:
    """Runs Fig. 7's collect_garbage task for one client."""

    def __init__(self, client: ProtocolClient):
        self.client = client
        self.source = f"gc:{client.client_id}"
        # old[stripe][j]: tids moved to oldlists last round, to discard next.
        self._old: dict[int, dict[int, set[Tid]]] = {}
        self._lock = threading.Lock()
        self.rounds = 0

    def run_once(self) -> int:
        """One GC round over every stripe with pending work.

        Returns the number of (stripe, node) batches processed.  A node
        that is locked or out of NORM mode (recovery in progress) makes
        its batch roll over to the next round — GC must never interfere
        with recovery.
        """
        with self.client._gc_lock:
            pending = {
                stripe: {j: set(tids) for j, tids in per.items()}
                for stripe, per in self.client.gc_pending.items()
            }
            self.client.gc_pending = {}
        with self._lock:
            old = self._old
            self._old = {}
        processed = 0
        next_old: dict[int, dict[int, set[Tid]]] = {}
        cp = self.client.crashpoints
        for stripe in sorted(set(pending) | set(old)):
            done_old = self._phase(stripe, old.get(stripe, {}), "gc_old")
            if cp.enabled:
                # A crash here is the two-phase claim's worst case: the
                # older generation already discarded, the newer one still
                # in recentlists — and still collectable by any client.
                cp.hit("gc.between_phases", stripe=stripe)
            done_recent = self._phase(stripe, pending.get(stripe, {}), "gc_recent")
            processed += len(done_old) + len(done_recent)
            # Batches that went through gc_recent become next round's
            # gc_old input; failed batches are retried as-is next round.
            carry: dict[int, set[Tid]] = {}
            for j, tids in pending.get(stripe, {}).items():
                if j in done_recent:
                    carry.setdefault(j, set()).update(tids)
                else:
                    with self.client._gc_lock:
                        self.client.gc_pending.setdefault(stripe, {}).setdefault(
                            j, set()
                        ).update(tids)
            for j, tids in old.get(stripe, {}).items():
                if j not in done_old:
                    carry.setdefault(j, set()).update(tids)
            if carry:
                next_old[stripe] = carry
        with self._lock:
            for stripe, per in next_old.items():
                existing = self._old.setdefault(stripe, {})
                for j, tids in per.items():
                    existing.setdefault(j, set()).update(tids)
        self.rounds += 1
        metrics = self.client.metrics
        if metrics.enabled:
            metrics.counter("gc_rounds_total").inc()
            metrics.counter("gc_batches_total").inc(processed)
        if processed and self.client.tracer.enabled:
            self.client.tracer.emit(self.source, "gc.round", batches=processed)
        return processed

    def _phase(
        self, stripe: int, batches: dict[int, set[Tid]], op: str
    ) -> set[int]:
        """Send one GC op to every node with a batch; returns positions
        that acknowledged OK.  Anything else — a refusal (locked or not
        NORM), a shed, a timeout, a crash — leaves the batch to roll
        over to the next round; it is never re-sent within this one."""
        if not batches:
            return set()

        def one(j: int) -> bool:
            try:
                result = self.client._call(
                    stripe, j, op, self.client._addr(stripe, j),
                    sorted(batches[j], key=str), op_kind="gc",
                )
            except (NodeBusyError, NodeUnavailableError):
                # Shed, timed out (the node's lists survive, so dropping
                # the batch would strand tids forever) or gone (recovery
                # resets the lists anyway): roll over either way.
                return False
            return result == "OK"

        self.client._account_round("gc")
        results = pfor(sorted(batches), one)
        return {j for j, ok in results.items() if ok is True}

    def pending_tids(self) -> int:
        """Total tids awaiting collection (for overhead experiments)."""
        with self.client._gc_lock:
            recent = sum(
                len(tids)
                for per in self.client.gc_pending.values()
                for tids in per.values()
            )
        with self._lock:
            old = sum(
                len(tids) for per in self._old.values() for tids in per.values()
            )
        return recent + old
