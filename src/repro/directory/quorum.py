"""Client-side quorum protocol for the replicated directory.

:class:`ReplicatedDirectory` duck-types the in-process
:class:`~repro.directory.local.Directory` API, but every decision goes
through the transport to 3–5 :class:`~repro.directory.replica
.DirectoryReplica` nodes:

* **Reads** fan ``dir_read`` to all replicas and take the
  highest-tagged committed value from a majority, ABD-style.  Read
  repair fires only when reachable replicas *disagree*, so a
  fault-free run does exactly one round (2·R messages) per lookup and
  the wire cost stays exactly predictable.
* **Writes** (bind / pin / unpin / remap / generation commits) run a
  single-decree consensus per key: prepare to all, majority promise,
  adopt any chosen-but-uncommitted value found in the prepare quorum,
  else apply the caller's transform; accept to all, majority ack =
  commit point; apply disseminates the decision.  Proposal tags
  ``(round, proposer)`` fence stale proposers out, which is what makes
  a remap decision unique per (slot, incarnation) — no split brain.

**Degraded mode**: when a majority is unreachable, lookups fall back
to the last committed value this process observed
(``directory_degraded_reads_total``) and remaps are *refused* —
the cached binding is returned unchanged and no fresh incarnation is
provisioned (``directory_remaps_refused_total``).  Reads keep flowing
off cached bindings; nothing can diverge because nothing is decided.

Retries ride the same machinery as data RPCs: a seeded
:class:`~repro.net.backpressure.BackoffPolicy` paces RMW re-proposals,
a :class:`~repro.net.backpressure.RetryBudget` bounds them, and the
shared :class:`~repro.client.health.HealthRegistry` breakers fast-fail
legs to replicas that stopped answering.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace

from repro.crashpoints import NULL_CRASHPOINTS
from repro.directory.local import UnknownSlotError
from repro.directory.replica import SlotBinding, Tag, ZERO_TAG
from repro.errors import (
    DirectoryUnavailableError,
    NodeBusyError,
    RpcTimeoutError,
)
from repro.net.backpressure import BackoffPolicy
from repro.net.message import Envelope
from repro.obs.metrics import NULL_REGISTRY
from repro.placement.map import PlacementMap
from repro.obs.trace import NULL_TRACER

#: Transform sentinel: "no change; return the current value".
_KEEP = object()

#: Consecutive-timeout threshold before a replica's breaker trips.
_TIMEOUT_THRESHOLD = 3

#: Per-RPC deadline for every replica call, seconds.
_RPC_TIMEOUT = 0.2

#: Read-modify-write rounds (prepare + accept) before giving up.
_MAX_ATTEMPTS = 8

#: Seeded backoff between RMW re-proposals: base and cap, seconds.
_BACKOFF_BASE = 0.001
_BACKOFF_CAP = 0.05


class ReplicatedDirectory:
    """Majority-quorum directory client (shared, thread-safe).

    One instance per cluster is registered on the transport as
    ``client_id`` and shared by every protocol client/agent through
    per-client :class:`DirectoryCache` views.
    """

    def __init__(
        self,
        client_id: str,
        transport,
        replica_ids: list[str],
        provisioner,
        *,
        health=None,
        retry_budget=None,
        seed: int = 0,
    ):
        if len(replica_ids) < 3:
            raise ValueError("a replicated directory needs >= 3 replicas")
        self.client_id = client_id
        self.transport = transport
        self.replica_ids = list(replica_ids)
        self._provisioner = provisioner
        self.health = health
        self.retry_budget = retry_budget
        self._backoff = BackoffPolicy(_BACKOFF_BASE, _BACKOFF_CAP, seed=seed)
        self.crashpoints = NULL_CRASHPOINTS
        self.metrics = NULL_REGISTRY
        self.tracer = NULL_TRACER
        self._round = 0
        #: last committed (tag, value) observed per key — the degraded
        #: fallback when a quorum is unreachable.
        self._cache: dict[tuple, tuple[Tag, object]] = {}
        self._lock = threading.Lock()
        transport.register(client_id)

    @property
    def majority(self) -> int:
        return len(self.replica_ids) // 2 + 1

    # -- wire layer ----------------------------------------------------

    def _call_replica(self, replica_id: str, op: str, *args: object):
        health = self.health
        if health is not None and not health.allow_request(replica_id):
            raise DirectoryUnavailableError(op, f"breaker open for {replica_id}")
        env = Envelope(kind="directory", timeout=_RPC_TIMEOUT)
        start = time.perf_counter()
        try:
            result = self.transport.call(
                self.client_id, replica_id, op, *args, env=env
            )
        except NodeBusyError:
            raise  # overload, not failure: health state untouched
        except Exception as exc:
            if health is not None:
                kind = "timeout" if isinstance(exc, RpcTimeoutError) else "unavailable"
                health.observe_failure(replica_id, kind, _TIMEOUT_THRESHOLD)
            raise
        if health is not None:
            health.observe_success(replica_id, time.perf_counter() - start)
        return result

    def _fanout(self, op: str, *args: object) -> dict[str, object]:
        """One logical quorum round: ``op`` to every replica in parallel.

        Failures come back as exception values (the transport's
        :meth:`~repro.net.transport.Transport.fan_out`); each
        failed leg is counted as a bounded-cost-audit explainer."""
        metrics = self.metrics
        if metrics.enabled:
            metrics.counter("rpc_rounds_total", kind="directory").inc()
        results = self.transport.fan_out(
            self.replica_ids, lambda rid: self._call_replica(rid, op, *args)
        )
        if metrics.enabled:
            failed = sum(
                1 for r in results.values() if isinstance(r, BaseException)
            )
            if failed:
                metrics.counter("directory_leg_failures_total", op=op).inc(failed)
        return results

    @staticmethod
    def _good(results: dict[str, object]) -> dict[str, dict]:
        return {
            rid: r
            for rid, r in results.items()
            if not isinstance(r, BaseException)
        }

    @staticmethod
    def _merge_snapshots(good: dict[str, dict]) -> dict[tuple, tuple[Tag, object]]:
        """Highest-tag merge of ``dir_snapshot`` answers, per key."""
        merged: dict[tuple, tuple[Tag, object]] = {}
        for r in good.values():
            for key, (tag, value) in r["committed"].items():
                key, tag = tuple(key), tuple(tag)
                entry = merged.get(key)
                if entry is None or tag > entry[0]:
                    merged[key] = (tag, value)
        return merged

    def _repair(self, replica_id: str, key: tuple, tag: Tag, value: object) -> None:
        """Push a newer committed value to one lagging replica."""
        try:
            self._call_replica(replica_id, "dir_apply", key, tag, value)
        except Exception:
            return  # converges later via anti-entropy
        if self.metrics.enabled:
            self.metrics.counter("directory_repairs_total").inc()

    # -- quorum read ---------------------------------------------------

    def _cached(self, key: tuple):
        with self._lock:
            entry = self._cache.get(key)
        return None if entry is None else entry[1]

    def _remember(self, key: tuple, tag: Tag, value: object) -> None:
        with self._lock:
            entry = self._cache.get(key)
            if entry is None or tag > entry[0]:
                self._cache[key] = (tag, value)

    def _read(self, key: tuple):
        """Majority read; returns the highest-tagged committed value
        (None when the key was never written).  Raises
        :class:`DirectoryUnavailableError` without a majority."""
        results = self._fanout("dir_read", key)
        good = self._good(results)
        if len(good) < self.majority:
            raise DirectoryUnavailableError(
                "read",
                f"{len(good)}/{len(self.replica_ids)} replicas reachable",
            )
        if self.metrics.enabled:
            self.metrics.counter("directory_quorum_reads_total").inc()
        best: tuple[Tag, object] | None = None
        for r in good.values():
            committed = r["committed"]
            if committed is not None:
                tag = tuple(committed[0])
                if best is None or tag > best[0]:
                    best = (tag, committed[1])
        if best is None:
            return None
        for rid, r in good.items():
            committed = r["committed"]
            if committed is None or tuple(committed[0]) < best[0]:
                self._repair(rid, key, best[0], best[1])
        self._remember(key, best[0], best[1])
        return best[1]

    def _read_or_cached(self, key: tuple):
        """Quorum read, degrading to the last-known committed value."""
        try:
            return self._read(key)
        except DirectoryUnavailableError:
            cached = self._cached(key)
            if cached is None:
                raise
            if self.metrics.enabled:
                self.metrics.counter("directory_degraded_reads_total").inc()
            return cached

    # -- quorum read-modify-write --------------------------------------

    def _next_tag(self, floor: int = 0) -> Tag:
        with self._lock:
            self._round = max(self._round, floor) + 1
            return (self._round, self.client_id)

    def _sleep(self, attempt: int) -> None:
        delay = self._backoff.next_delay(attempt)
        if delay > 0:
            time.sleep(delay)

    def _retry_permitted(self) -> bool:
        budget = self.retry_budget
        return budget is None or budget.spend()

    def _accept_apply(self, key: tuple, tag: Tag, value: object) -> bool:
        """Phase 2 + dissemination.  True iff ``value`` was chosen
        (majority accept) — the commit point.  ``apply`` is best-effort:
        a missed apply is healed by read repair or anti-entropy."""
        cp = self.crashpoints
        if cp.enabled:
            cp.hit("directory.before_commit", key=key, tag=tag)
        results = self._fanout("dir_accept", key, tag, value)
        good = self._good(results)
        if len(good) < self.majority:
            raise DirectoryUnavailableError(
                "accept",
                f"{len(good)}/{len(self.replica_ids)} replicas reachable",
            )
        acks = [r for r in good.values() if r["ok"]]
        if len(acks) < self.majority:
            fenced = max(
                tuple(r["promised"]) for r in good.values() if not r["ok"]
            )
            with self._lock:
                self._round = max(self._round, fenced[0])
            return False
        if cp.enabled:
            cp.hit("directory.before_apply", key=key, tag=tag)
        self._fanout("dir_apply", key, tag, value)
        self._remember(key, tag, value)
        return True

    def _rmw(self, key: tuple, transform):
        """Fenced read-modify-write on one directory key.

        ``transform(current)`` returns the new value, or ``_KEEP`` to
        abort with no change (the prepare quorum already gave a
        linearizable read of ``current``), or raises."""
        cp = self.crashpoints
        for attempt in range(_MAX_ATTEMPTS):
            if attempt > 0:
                if not self._retry_permitted():
                    raise DirectoryUnavailableError(
                        "rmw", f"retry budget exhausted for {key}"
                    )
                self._sleep(attempt)
            tag = self._next_tag()
            if cp.enabled:
                cp.hit("directory.before_prepare", key=key, tag=tag)
            results = self._fanout("dir_prepare", key, tag)
            good = self._good(results)
            if len(good) < self.majority:
                raise DirectoryUnavailableError(
                    "prepare",
                    f"{len(good)}/{len(self.replica_ids)} replicas reachable",
                )
            acks = [r for r in good.values() if r["ok"]]
            if len(acks) < self.majority:
                fenced = max(
                    tuple(r["promised"]) for r in good.values() if not r["ok"]
                )
                with self._lock:
                    self._round = max(self._round, fenced[0])
                continue
            committed: tuple[Tag, object] | None = None
            accepted: tuple[Tag, object] | None = None
            for r in acks:
                entry = r.get("committed")
                if entry is not None:
                    entry = (tuple(entry[0]), entry[1])
                    if committed is None or entry[0] > committed[0]:
                        committed = entry
                entry = r.get("accepted")
                if entry is not None:
                    entry = (tuple(entry[0]), entry[1])
                    if accepted is None or entry[0] > accepted[0]:
                        accepted = entry
            if committed is not None:
                self._remember(key, committed[0], committed[1])
            if accepted is not None and (
                committed is None or accepted[0] > committed[0]
            ):
                # An earlier proposer may have gotten this value chosen
                # before dying: re-propose *it* under our tag first
                # (the synod rule), then retry our own transform.
                if self._accept_apply(key, tag, accepted[1]):
                    if self.metrics.enabled:
                        self.metrics.counter(
                            "directory_rmw_total", result="adopted"
                        ).inc()
                continue
            current = committed[1] if committed is not None else None
            new = transform(current)
            if new is _KEEP:
                if self.metrics.enabled:
                    self.metrics.counter(
                        "directory_rmw_total", result="aborted"
                    ).inc()
                if self.retry_budget is not None and attempt == 0:
                    self.retry_budget.deposit()
                return current
            if not self._accept_apply(key, tag, new):
                continue
            if self.metrics.enabled:
                self.metrics.counter(
                    "directory_rmw_total", result="committed"
                ).inc()
            if self.retry_budget is not None and attempt == 0:
                self.retry_budget.deposit()
            return new
        raise DirectoryUnavailableError(
            "rmw", f"no decision after {_MAX_ATTEMPTS} attempts for {key}"
        )

    # -- the Directory duck-typed API ----------------------------------

    def lookup(self, slot: int) -> SlotBinding:
        """Current binding for ``slot`` (quorum read, cached fallback)."""
        value = self._read_or_cached(("slot", slot))
        if value is None:
            raise UnknownSlotError(f"slot {slot} is not bound")
        return value

    def node_id(self, slot: int) -> str:
        return self.lookup(slot).node_id

    def incarnation(self, slot: int) -> int:
        return self.lookup(slot).incarnation

    def is_pinned(self, slot: int) -> bool:
        return self.lookup(slot).pinned

    def slots(self) -> list[int]:
        """All bound slots, from a majority snapshot merge."""
        results = self._fanout("dir_snapshot")
        good = self._good(results)
        if len(good) < self.majority:
            with self._lock:
                cached = [k[1] for k in self._cache if k[0] == "slot"]
            if not cached:
                raise DirectoryUnavailableError(
                    "snapshot",
                    f"{len(good)}/{len(self.replica_ids)} replicas reachable",
                )
            if self.metrics.enabled:
                self.metrics.counter("directory_degraded_reads_total").inc()
            return sorted(cached)
        merged = self._merge_snapshots(good)
        for key, (tag, value) in merged.items():
            self._remember(key, tag, value)
        return sorted(key[1] for key in merged if key[0] == "slot")

    def bind(self, slot: int, node_id: str) -> None:
        """(Re)bind a slot; keeps the incarnation, like the local map."""

        def transform(current):
            if current is not None and current.node_id == node_id:
                return _KEEP
            if current is None:
                return SlotBinding(node_id, 0, False)
            return replace(current, node_id=node_id)

        self._rmw(("slot", slot), transform)

    def pin(self, slot: int) -> None:
        self._set_pinned(slot, True)

    def unpin(self, slot: int) -> None:
        self._set_pinned(slot, False)

    def _set_pinned(self, slot: int, pinned: bool) -> None:
        def transform(current):
            if current is None:
                raise UnknownSlotError(f"slot {slot} is not bound")
            if current.pinned == pinned:
                return _KEEP
            return replace(current, pinned=pinned)

        self._rmw(("slot", slot), transform)

    def remap(self, slot: int, failed_node_id: str) -> str:
        """Replace a failed node through consensus; degraded-safe.

        Under quorum loss the remap is *refused*: the last-known
        binding is returned unchanged and no replacement is
        provisioned, so two sides of a partition can never both mint
        incarnation i+1 (never split-brain)."""

        def transform(current):
            if current is None:
                raise UnknownSlotError(f"slot {slot} is not bound")
            if current.pinned or current.node_id != failed_node_id:
                return _KEEP
            incarnation = current.incarnation + 1
            fresh = self._provisioner(slot, incarnation)
            return SlotBinding(fresh, incarnation, False)

        try:
            return self._rmw(("slot", slot), transform).node_id
        except DirectoryUnavailableError:
            cached = self._cached(("slot", slot))
            if cached is None:
                raise
            if self.metrics.enabled:
                self.metrics.counter("directory_remaps_refused_total").inc()
            return cached.node_id

    # -- placement generations -----------------------------------------

    def commit_generation(self, stripe: int, gen: int) -> None:
        """Record stripe's placement generation (monotonic max)."""

        def transform(current):
            if current is not None and current >= gen:
                return _KEEP
            return gen

        self._rmw(("gen", stripe), transform)

    def generation(self, stripe: int) -> int:
        """Committed placement generation for ``stripe`` (0 = never
        rebalanced), from quorum or — degraded — the local cache."""
        value = self._read_or_cached(("gen", stripe))
        return 0 if value is None else value

    # -- convergence / introspection -----------------------------------

    def anti_entropy(self) -> int:
        """Push the merged committed state to every reachable replica.

        Returns the number of entries adopted somewhere.  Run at
        quiescence (soak settle phase) so ``directory_agrees`` can
        demand exact convergence."""
        results = self._fanout("dir_snapshot")
        good = self._good(results)
        if not good:
            return 0
        merged = self._merge_snapshots(good)
        with self._lock:
            for key, entry in self._cache.items():
                best = merged.get(key)
                if best is None or entry[0] > best[0]:
                    merged[key] = entry
        adopted = 0
        sync_results = self._fanout("dir_sync", merged)
        for r in self._good(sync_results).values():
            adopted += r["adopted"]
        return adopted

    def digest(self) -> str:
        """Deterministic digest of the merged committed directory state."""
        import hashlib

        merged = self._merge_snapshots(self._good(self._fanout("dir_snapshot")))
        items = sorted(
            (repr(key), repr(tag), repr(value))
            for key, (tag, value) in merged.items()
        )
        payload = "\n".join(",".join(item) for item in items)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


class DirectoryCache:
    """Per-client stale-invalidated view of a :class:`ReplicatedDirectory`.

    The :class:`~repro.placement.map.PlacementCache` idiom applied to
    slot bindings: lookups hit the local dict; only a miss pays a
    quorum round.  A binding is invalidated when this client remaps the
    slot; a binding that went stale via *another* client's remap is
    caught by the existing failure machinery (the old node answers
    NodeUnavailable/timeout, the client calls ``remap``, consensus
    returns the already-current binding, and the entry refreshes).
    """

    def __init__(self, inner: ReplicatedDirectory):
        self._inner = inner
        self._entries: dict[int, SlotBinding] = {}
        self._lock = threading.Lock()
        #: quorum fetches this view paid (cache misses).
        self.fetches = 0

    def _entry(self, slot: int) -> SlotBinding:
        with self._lock:
            binding = self._entries.get(slot)
        if binding is None:
            binding = self._inner.lookup(slot)
            with self._lock:
                self._entries[slot] = binding
                self.fetches += 1
        return binding

    def invalidate(self, slot: int) -> None:
        with self._lock:
            self._entries.pop(slot, None)

    def node_id(self, slot: int) -> str:
        return self._entry(slot).node_id

    def incarnation(self, slot: int) -> int:
        # Authoritative: incarnations feed remap decisions elsewhere.
        binding = self._inner.lookup(slot)
        with self._lock:
            self._entries[slot] = binding
        return binding.incarnation

    def remap(self, slot: int, failed_node_id: str) -> str:
        fresh = self._inner.remap(slot, failed_node_id)
        with self._lock:
            cached = self._entries.get(slot)
            if cached is None or cached.node_id != fresh:
                self._entries.pop(slot, None)
        return fresh

    def slots(self) -> list[int]:
        return self._inner.slots()

    def pin(self, slot: int) -> None:
        self._inner.pin(slot)
        self.invalidate(slot)

    def unpin(self, slot: int) -> None:
        self._inner.unpin(slot)
        self.invalidate(slot)

    def is_pinned(self, slot: int) -> bool:
        return self._inner.is_pinned(slot)

    def bind(self, slot: int, node_id: str) -> None:
        self._inner.bind(slot, node_id)
        self.invalidate(slot)


class QuorumPlacement(PlacementMap):
    """A placement map whose stripe commits go through the directory.

    ``commit_stripe`` first records the generation in the replicated
    directory (a fenced RMW on ``("gen", stripe)``) and only then
    flips the local map — so under quorum loss a rebalance commit
    fails cleanly (the stripe keeps serving at its old placement)
    instead of diverging from what a healed majority would decide.
    """

    def __init__(self, width, members, *, vnodes: int = 64, seed: int = 0,
                 directory: ReplicatedDirectory | None = None):
        super().__init__(width, members, vnodes=vnodes, seed=seed)
        self.directory = directory

    def commit_stripe(self, stripe: int, gen: int) -> None:
        directory = self.directory
        if directory is not None:
            directory.commit_generation(stripe, gen)
        super().commit_stripe(stripe, gen)
