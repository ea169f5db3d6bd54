"""Cluster assembly: storage nodes + directory + transport + clients.

This is the "distributed and reliable storage service" of Section 5.1:
n storage-node slots behind a transport, a directory service for node
remap, and any number of protocol clients.  It also hosts the fault
injection used by tests and the Fig. 9d experiment (crash a storage
node / crash a client mid-write) and whole-stripe invariant checks.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.client.config import ClientConfig
from repro.client.health import HealthRegistry
from repro.client.protocol import ProtocolClient
from repro.core.volume import VolumeClient
from repro.crashpoints import NULL_CRASHPOINTS
from repro.directory import (
    Directory,
    DirectoryCache,
    DirectoryReplica,
    QuorumPlacement,
    ReplicatedDirectory,
)
from repro.erasure.rs import ReedSolomonCode
from repro.erasure.striping import StripeLayout
from repro.ids import BlockAddr
from repro.net.backpressure import AdmissionController, RetryBudget
from repro.net.chaos import ChaosTransport, FaultPlan
from repro.net.local import DelayModel, LocalTransport
from repro.net.transport import Transport
from repro.obs import Observability
from repro.placement.map import PlacementCache, PlacementMap
from repro.placement.rebalance import Rebalancer
from repro.storage.node import StorageNode, VolumeMeta
from repro.storage.state import BlockState, OpMode
from repro.storage.store import BlockStore
from repro.storage.wal import WalStore


@dataclass(frozen=True)
class RestartReport:
    """Outcome of one :meth:`Cluster.restart_storage` call."""

    slot: int
    node_id: str
    clean: bool  # WAL replayed fully; node serves its old state
    reason: str | None  # why replay was dirty (torn/lost), if it was
    blocks_restored: int
    records_replayed: int


class Cluster:
    """An in-process deployment of the storage service."""

    def __init__(
        self,
        k: int,
        n: int,
        *,
        block_size: int = 1024,
        rotate: bool = True,
        transport: Transport | None = None,
        delay: DelayModel | None = None,
        seed: int = 0,
        store_factory=None,
        chaos_plan: FaultPlan | None = None,
        observability: Observability | None = None,
        admission_limit: int | None = None,
        retry_budget: float | None = None,
        pool: int | None = None,
        directory_replicas: int | None = None,
    ):
        self.code = ReedSolomonCode(k, n)
        self.layout = StripeLayout(k, n, rotate=rotate)
        self.volume_name = "vol0"
        self.meta = VolumeMeta(
            code=self.code, layout=self.layout, block_size=block_size
        )
        self._volumes: dict[str, VolumeMeta] = {self.volume_name: self.meta}
        self.transport = transport or LocalTransport(delay=delay)
        #: The ChaosTransport wrapper when a fault plan is active (its
        #: ledger is how soak runs audit what was injected); else None.
        self.chaos: ChaosTransport | None = None
        if chaos_plan is not None:
            self.chaos = ChaosTransport(self.transport, chaos_plan)
            self.transport = self.chaos
        #: Shared observability bundle (metrics + tracer + flight
        #: recorder); None keeps every layer on its null sinks.
        self.observability = observability
        if observability is not None:
            self.transport.metrics = observability.registry
        #: Deployment-wide per-node health view (EWMA + circuit
        #: breakers), shared by every client this cluster creates so
        #: protocol, monitor, GC and rebuild traffic all feed — and all
        #: benefit from — the same breaker state.
        self.health = HealthRegistry()
        #: Cluster-wide retry budget shared by all clients (None =
        #: unlimited retries, the historical behaviour).
        self.retry_budget = (
            RetryBudget(retry_budget) if retry_budget is not None else None
        )
        if admission_limit is not None:
            self.transport.admission = AdmissionController(admission_limit)
        if observability is not None:
            self.health.metrics = observability.registry
            if self.retry_budget is not None:
                self.retry_budget.metrics = observability.registry
            if self.transport.admission is not None:
                self.transport.admission.metrics = observability.registry
        self._seed = seed
        # Optional persistence backend per node, e.g.
        # ``lambda slot: SimulatedDiskStore()`` for the §3.11 study.
        self._store_factory = store_factory
        self.stores: dict[int, object] = {}
        #: Slots crashed under the "restart" policy, awaiting
        #: restart_storage: the node id and whether it was a fresh
        #: replacement.
        self._down: dict[int, tuple[str, bool]] = {}
        self._nodes: dict[str, StorageNode] = {}
        self._clients: dict[str, ProtocolClient] = {}
        self._lock = threading.Lock()
        #: Directory replica handlers (``directory_replicas=R``): the
        #: metadata plane as its own fault domain, reachable only via
        #: the transport so chaos faults hit it too.  Empty with the
        #: legacy in-process directory.
        self.directory_nodes: list[DirectoryReplica] = []
        #: The shared quorum client over those replicas, or None.
        self.qdirectory: ReplicatedDirectory | None = None
        if directory_replicas is not None:
            if not 3 <= directory_replicas <= 5:
                raise ValueError(
                    f"directory_replicas must be 3..5, got {directory_replicas}"
                )
            replica_ids = [f"dir-{i}" for i in range(directory_replicas)]
            for replica_id in replica_ids:
                replica = DirectoryReplica(replica_id)
                self.directory_nodes.append(replica)
                self.transport.register(replica_id, replica)
            self.qdirectory = ReplicatedDirectory(
                "dir-client",
                self.transport,
                replica_ids,
                self._provision,
                health=self.health,
                retry_budget=self.retry_budget,
                seed=seed,
            )
            if observability is not None:
                self.qdirectory.metrics = observability.registry
                self.qdirectory.tracer = observability.tracer
                observability.registry.gauge("directory_replica_count").set(
                    directory_replicas
                )
        #: Elastic placement (``pool=N``): stripes are assigned to n of
        #: the N pooled slots by a versioned consistent-hash map instead
        #: of the static layout.  None keeps the paper's fixed layout.
        self.placement: PlacementMap | None = None
        if pool is not None:
            if pool < n:
                raise ValueError(f"pool={pool} cannot host n={n} stripes")
            if self.qdirectory is not None:
                # Stripe-generation commits ride the same quorum as
                # slot bindings before the local map flips.
                self.placement = QuorumPlacement(
                    width=n, members=range(pool), seed=seed,
                    directory=self.qdirectory,
                )
            else:
                self.placement = PlacementMap(
                    width=n, members=range(pool), seed=seed
                )
        self.directory = (
            self.qdirectory
            if self.qdirectory is not None
            else Directory(self._provision)
        )
        for slot in range(pool if pool is not None else n):
            node_id = f"storage-{slot}"
            self._install_node(node_id, slot, fresh=False)
            self.directory.bind(slot, node_id)
        # Perfect failure detector fan-out: crashed clients expire the
        # locks they hold at every storage node (Fig. 6 "upon failure").
        self.transport.add_failure_listener(self._on_node_failure)

    # ------------------------------------------------------------------
    # node lifecycle
    # ------------------------------------------------------------------

    def _install_node(
        self,
        node_id: str,
        slot: int,
        fresh: bool,
        store: BlockStore | None = None,
        restore: dict[BlockAddr, BlockState] | None = None,
    ) -> StorageNode:
        if store is None and self._store_factory is not None:
            store = self._store_factory(slot)
        if store is not None:
            self.stores[slot] = store
        node = StorageNode(
            node_id=node_id,
            slot=slot,
            volumes=dict(self._volumes),
            fresh=fresh,
            seed=self._seed + slot * 1009 + (1 if fresh else 0),
            store=store,
            restore=restore,
        )
        node.placement = self.placement
        obs = self.observability
        if obs is not None:
            node.metrics = obs.registry
            node.tracer = obs.tracer
            node.register_gauges(obs.registry)
            if store is not None and hasattr(store, "metrics"):
                store.metrics = obs.registry
        self.transport.register(node_id, node)
        with self._lock:
            self._nodes[node_id] = node
        return node

    def _provision(self, slot: int, incarnation: int) -> str:
        """Directory callback: bring up a fresh replacement node (§3.5).

        Deterministic and idempotent: the same (slot, incarnation)
        always names — and installs at most once — the same node.  The
        quorum directory relies on this: two racing remap proposers may
        both call it, but whichever proposal wins consensus binds the
        identical node id, so no split brain is even expressible."""
        node_id = f"storage-{slot}.{incarnation}"
        with self._lock:
            installed = node_id in self._nodes
        if not installed:
            self._install_node(node_id, slot, fresh=True)
        return node_id

    def add_storage(self, count: int = 1) -> list[int]:
        """Grow the pool: install ``count`` new empty storage nodes on
        fresh slots and bind them in the directory.  The new slots serve
        no stripes until a placement generation including them is
        proposed and the rebalancer migrates stripes over.  Placement
        mode only."""
        if self.placement is None:
            raise ValueError("add_storage requires a placement-mode cluster")
        start = max(self.directory.slots()) + 1
        new_slots = list(range(start, start + count))
        for slot in new_slots:
            node_id = f"storage-{slot}"
            self._install_node(node_id, slot, fresh=False)
            self.directory.bind(slot, node_id)
        return new_slots

    def slot_of(self, stripe: int, index: int) -> int:
        """Slot serving stripe position ``index`` — committed placement
        in placement mode, static layout otherwise."""
        if self.placement is not None:
            return self.placement.lookup(stripe)[1][index]
        return self.layout.node_of_stripe_index(stripe, index)

    def rebalancer(
        self,
        name: str,
        config: ClientConfig | None = None,
        crashpoints=NULL_CRASHPOINTS,
    ) -> Rebalancer:
        """Build a rebalancer wired to this cluster (placement mode),
        driving its own protocol client."""
        if self.placement is None:
            raise ValueError("rebalancer requires a placement-mode cluster")
        return Rebalancer(
            self.protocol_client(name, config),
            self.placement,
            crashpoints=crashpoints,
        )

    def _client_directory(self):
        """A per-client directory view: a stale-invalidated cache over
        the quorum client (PlacementCache idiom) in replicated mode,
        the shared in-process map otherwise."""
        if self.qdirectory is not None:
            return DirectoryCache(self.qdirectory)
        return self.directory

    # -- directory-replica lifecycle (replicated mode) -----------------

    @property
    def directory_replica_ids(self) -> list[str]:
        return [replica.replica_id for replica in self.directory_nodes]

    def crash_directory_replica(self, index: int) -> str:
        """Fail-stop one directory replica; returns its id."""
        replica_id = self.directory_nodes[index].replica_id
        self.transport.crash(replica_id)
        return replica_id

    def restart_directory_replica(self, index: int) -> str:
        """Bring a crashed directory replica back, state intact.

        Directory registers are tiny and durable in this model (the
        analogue of a metadata WAL); what a restarted replica missed
        while down is healed by read repair and anti-entropy."""
        replica = self.directory_nodes[index]
        self.transport.register(replica.replica_id, replica)
        return replica.replica_id

    def _on_node_failure(self, failed_id: str) -> None:
        with self._lock:
            nodes = list(self._nodes.values())
        for node in nodes:
            node.on_client_failure(failed_id)

    # ------------------------------------------------------------------
    # clients
    # ------------------------------------------------------------------

    def add_volume(self, name: str, block_size: int | None = None) -> None:
        """Create another logical volume on the same storage nodes.

        Volumes share the cluster's code and layout but have disjoint
        block namespaces (and may differ in block size) — the way one
        disk array serves many virtual disks."""
        with self._lock:
            if name in self._volumes:
                raise ValueError(f"volume {name!r} already exists")
            meta = VolumeMeta(
                code=self.code,
                layout=self.layout,
                block_size=block_size or self.meta.block_size,
            )
            self._volumes[name] = meta
            for node in self._nodes.values():
                node.volumes[name] = meta

    def volume_meta(self, volume: str | None = None) -> VolumeMeta:
        with self._lock:
            return self._volumes[volume or self.volume_name]

    def protocol_client(
        self,
        name: str,
        config: ClientConfig | None = None,
        volume: str | None = None,
    ) -> ProtocolClient:
        """A raw protocol client (stripe-level API)."""
        volume = volume or self.volume_name
        client = ProtocolClient(
            client_id=name,
            transport=self.transport,
            # In replicated-directory mode each client gets its own
            # stale-invalidated cache view, mirroring the placement
            # cache below.
            directory=self._client_directory(),
            volume=volume,
            meta=self.volume_meta(volume),
            config=config,
            health=self.health,
            retry_budget=self.retry_budget,
            # Each client gets its *own* cache over the shared map, so
            # staleness (and invalidation-on-remap) is per client.
            placement=(
                PlacementCache(self.placement)
                if self.placement is not None
                else None
            ),
        )
        if self.observability is not None:
            client.attach_observability(
                self.observability.registry, self.observability.tracer
            )
        with self._lock:
            self._clients[name] = client
        return client

    def client(
        self,
        name: str,
        config: ClientConfig | None = None,
        volume: str | None = None,
    ) -> VolumeClient:
        """A block-interface client (the public application API)."""
        return VolumeClient(self.protocol_client(name, config, volume), self.layout)

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------

    def crash_storage(
        self, slot: int, policy: str = "remap", media_force: str | None = None
    ) -> str:
        """Fail-stop the node currently serving ``slot``; returns its id.

        ``policy`` selects what the failure *means* for the slot:

        * ``"remap"`` (the paper's §3.5 model, and the default): the
          node is gone for good.  The next client that detects the
          crash remaps the slot to a freshly provisioned replacement
          whose blocks are ``INIT`` garbage; every stripe the old node
          served must be fully reconstructed from its peers.

        * ``"restart"``: the node will come back *with its own disk*
          (requires a :class:`~repro.storage.wal.WalStore`).  The slot
          is pinned in the directory — client-triggered remaps become
          no-ops, so the downtime is ridden out with retries and
          degraded reads — and the store takes its seeded crash-time
          media damage.
          Call :meth:`restart_storage` to bring the node back: a clean
          WAL replay restores the exact pre-crash state (epoch, tid
          lists, blocks) and only the writes missed while down need
          repair; a torn/lost tail degrades the node to fresh ``INIT``,
          i.e. the remap cost, but *detected*, never silent.

        ``media_force`` ("torn"/"lost"/"flip", restart policy only)
        damages the last WAL record unconditionally — deterministic
        injection for tests and the restart soak's forced-degradation
        cycle.  "flip" is *silent*: the frame is re-sealed with a fresh
        CRC, so the node replays cleanly and serves the corrupt block
        until a parity scrub catches it.
        """
        if policy not in ("remap", "restart"):
            raise ValueError(f"unknown crash policy {policy!r}")
        node_id = self.directory.node_id(slot)
        if policy == "restart":
            store = self.stores.get(slot)
            if not isinstance(store, WalStore):
                raise ValueError(
                    f"slot {slot} has no restart-capable store; use a "
                    f"store_factory building WalStore for policy='restart'"
                )
            # Pin before crashing so no client can slip in a remap
            # between failure detection and the eventual restart.
            self.directory.pin(slot)
            with self._lock:
                fresh = self._nodes[node_id].fresh
            self._down[slot] = (node_id, fresh)
            self.transport.crash(node_id)
            store.crash(force=media_force)
        else:
            self.transport.crash(node_id)
        return node_id

    def restart_storage(self, slot: int) -> RestartReport:
        """Bring back a node crashed under ``policy="restart"``.

        Replays the slot's WAL.  Clean replay: the node rejoins under
        its old identity with its persisted epoch, tid lists and block
        images intact, and serves immediately — the monitor/rebuilder
        then repair only stripes whose tid bookkeeping shows writes the
        node missed while down.  A restarted *replacement* stays one:
        an address its log never held comes back ``INIT``, not as the
        zeros an original node starts from.  Dirty replay (torn or lost
        records): the media is wiped and the node rejoins fresh,
        all-``INIT``, exactly like a remapped replacement.
        """
        if slot not in self._down:
            raise ValueError(
                f"slot {slot} was not crashed with policy='restart'"
            )
        node_id, fresh = self._down.pop(slot)
        store = self.stores[slot]
        result = store.reopen()
        if result.clean:
            node = self._install_node(
                node_id, slot, fresh=fresh, store=store, restore=result.states
            )
        else:
            store.reset()
            node = self._install_node(node_id, slot, fresh=True, store=store)
        self.directory.unpin(slot)
        obs = self.observability
        if obs is not None:
            outcome = "clean" if result.clean else "dirty"
            obs.registry.counter("node_restarts_total", outcome=outcome).inc()
            if not result.clean:
                obs.tracer.emit(
                    "cluster", "node.degraded_init",
                    slot=slot, node=node.node_id, reason=result.reason,
                )
        return RestartReport(
            slot=slot,
            node_id=node.node_id,
            clean=result.clean,
            reason=result.reason,
            blocks_restored=len(result.states),
            records_replayed=result.records,
        )

    def crash_client(self, client_id: str) -> None:
        """Fail-stop a client (its in-flight operations die with it)."""
        self.transport.crash(client_id)

    # ------------------------------------------------------------------
    # introspection / invariants
    # ------------------------------------------------------------------

    def node_for_slot(self, slot: int) -> StorageNode:
        """The live node object behind a slot (tests only)."""
        node_id = self.directory.node_id(slot)
        with self._lock:
            return self._nodes[node_id]

    def stripe_blocks(self, stripe: int, volume: str | None = None) -> list[np.ndarray]:
        """Direct (non-RPC) snapshot of a stripe's n blocks, by position."""
        volume = volume or self.volume_name
        out = []
        for j in range(self.code.n):
            slot = self.slot_of(stripe, j)
            node = self.node_for_slot(slot)
            out.append(node.peek(BlockAddr(volume, stripe, j)).block.copy())
        return out

    def stripe_consistent(self, stripe: int, volume: str | None = None) -> bool:
        """Quiescent invariant: the stripe satisfies the code equations.

        Only meaningful when no operation is in flight on the stripe and
        no block is INIT (garbage is, by design, inconsistent)."""
        volume = volume or self.volume_name
        for j in range(self.code.n):
            slot = self.slot_of(stripe, j)
            state = self.node_for_slot(slot).peek(BlockAddr(volume, stripe, j))
            if state.opmode is not OpMode.NORM:
                return False
        return self.code.is_consistent_stripe(self.stripe_blocks(stripe, volume))

    def verify_store_consistency(self) -> list[str]:
        """Audit: every WAL-backed node's log matches its in-memory state.

        For each live node with a :class:`~repro.storage.wal.WalStore`,
        decode the last record logged per address and compare it with
        the node's in-memory :class:`BlockState`: the block, opmode,
        epoch, both tid lists, recons_set and the fingerprint.  Returns
        human-readable mismatch descriptions — empty means the durable
        and volatile views agree.  Catches persistence and replay bugs
        the parity scrub cannot see.
        """
        mismatches: list[str] = []
        for slot in self.directory.slots():
            node = self.node_for_slot(slot)
            store = node.store
            if not isinstance(store, WalStore):
                continue
            for addr in store.addresses():
                durable = store.persisted_state(addr)
                memory = node.peek(addr)
                if not np.array_equal(durable.block, memory.block):
                    mismatches.append(
                        f"slot {slot} {addr}: persisted block != memory"
                    )
                    continue
                for fld in ("opmode", "epoch", "recentlist", "oldlist",
                            "recons_set", "fingerprint"):
                    if getattr(durable, fld) != getattr(memory, fld):
                        mismatches.append(
                            f"slot {slot} {addr}: persisted {fld} "
                            f"{getattr(durable, fld)!r} != memory "
                            f"{getattr(memory, fld)!r}"
                        )
        return mismatches

    def metadata_bytes(self) -> int:
        """Protocol control-state across all live storage nodes (§6.5)."""
        with self._lock:
            nodes = [
                self._nodes[self.directory.node_id(slot)]
                for slot in self.directory.slots()
            ]
        return sum(node.metadata_bytes() for node in nodes)

    def block_count(self) -> int:
        with self._lock:
            nodes = [
                self._nodes[self.directory.node_id(slot)]
                for slot in self.directory.slots()
            ]
        return sum(node.block_count() for node in nodes)
