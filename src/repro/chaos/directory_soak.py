"""Directory soak: metadata-plane chaos against the replicated directory.

``run_directory_soak`` stands up a placement-mode cluster whose slot
bindings, pins and placement generations all live in a 3-replica
quorum directory (:class:`~repro.directory.quorum.ReplicatedDirectory`),
puts the directory replicas on the *same* chaos transport as the
storage nodes (drops, duplicates and delays hit quorum traffic too),
and drives the metadata plane through its whole fate table while a
seeded workload keeps reading and writing:

1. **Minority crash** — one directory replica fail-stops, then a
   storage node dies: the remap decision must ride a 2-of-3 quorum.
2. **Replica restart** — the crashed replica returns (state intact)
   and must be converged by read repair / anti-entropy.
3. **Partition** — one replica is partitioned from the quorum client
   and healed; traffic continues on the majority side throughout.
4. **Quorum loss** — two replicas die.  The proof obligations of the
   degraded mode: every read still completes (cached bindings +
   degraded decode), a remap of a freshly-crashed storage node is
   *refused* (same node returned, no incarnation minted anywhere),
   and a brand-new client can still resolve slots from the shared
   last-known-committed cache.
5. **Heal** — replicas restart, the deferred remap completes through
   the restored quorum (incarnation 1), and a grow-and-rebalance pass
   commits its placement generations through the directory.

The settle phase disables chaos, restarts anything still down, runs
directory anti-entropy, monitor deep sweeps to quiescence, a GC
drain, and final recorded reads.  Checks: the stripe invariants plus
``placement_agrees`` (:func:`~repro.analysis.invariants
.check_quiescence`), the directory invariants ``directory_agrees`` +
``no_split_brain`` (:func:`~repro.analysis.invariants
.check_directory`), regular-register history semantics, chaos-ledger
vs metrics reconciliation, and the bounded paper-cost audit with the
``"directory"`` kind accounted.

Determinism: one driver thread, one seed.  The report carries four
digests — op history, injected-fault ledger, placement map, and the
merged committed directory state — and two same-seed runs must
produce all four identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.invariants import (
    STRIPE_INVARIANTS,
    check_directory,
    check_quiescence,
)
from repro.chaos.harness import (
    VALUE_WIDTH,
    ReportCore,
    SoakHarness,
    client_config,
    network_plan,
    verdict_line,
)
from repro.client.config import ClientConfig
from repro.client.monitor import Monitor
from repro.core.cluster import Cluster
from repro.crashpoints import CRASH_POINT_CATALOGUE, NULL_CRASHPOINTS, CrashPlan
from repro.errors import ClientCrash, ReproError

#: Payload letter and op-stream seed salt: this soak's own constants.
TAG = "d"
SALT = (7877, 31)

#: The directory RMW crash windows, in protocol order.
DIRECTORY_POINTS: tuple[str, ...] = (
    "directory.before_prepare",
    "directory.before_commit",
    "directory.before_apply",
)


@dataclass(frozen=True)
class DirectorySoakConfig:
    """Tunables for one directory soak; everything flows from ``seed``."""

    seed: int = 23
    k: int = 2
    n: int = 4
    pool: int = 8
    directory_replicas: int = 3
    block_size: int = 64
    #: Logical block namespace the workload reads/writes.
    blocks: int = 10
    clients: int = 2
    #: Workload ops run between fault-plan phases.
    ops_per_phase: int = 24
    read_fraction: float = 0.5
    #: Pool growth for the rebalance pass after the heal.
    grow: int = 2

    # -- deadline machinery under test ----------------------------------
    rpc_timeout: float = 0.05
    suspicion_threshold: int = 2

    # -- fault intensities (no gray node: quorum churn is the subject) --
    drop: float = 0.02
    dup: float = 0.04
    delay: float = 0.0002
    jitter: float = 0.0006

    # -- observability ---------------------------------------------------
    observe: bool = True
    flight_dir: str | None = None

    #: Monitor/recovery rounds allowed before quiescence fails.
    quiesce_rounds: int = 8

    def validate(self) -> None:
        if self.pool < self.n:
            raise ValueError(f"pool={self.pool} cannot host n={self.n}")
        if not 3 <= self.directory_replicas <= 5:
            raise ValueError(
                f"directory_replicas must be 3..5, "
                f"got {self.directory_replicas}"
            )
        if self.blocks < 2:
            raise ValueError("need >= 2 blocks (two distinct crash targets)")
        if self.grow < 1:
            raise ValueError("grow must add at least one member")


def smoke_config(seed: int = 23) -> DirectorySoakConfig:
    """The CI-sized soak: half the traffic, same fate-table coverage."""
    return DirectorySoakConfig(
        seed=seed,
        pool=6,
        blocks=8,
        ops_per_phase=12,
    )


@dataclass(frozen=True)
class QuorumLossProof:
    """Evidence that quorum loss degraded gracefully, never split-brain.

    Collected live inside the quorum-loss window: the remap of a
    crashed storage node must come back *refused* (the old binding,
    unchanged), the surviving minority replica must still hold the old
    incarnation (nothing was decided anywhere), a client born during
    the outage must still resolve slots (shared last-known cache), and
    every read issued during the window must complete.
    """

    refused_node_matches: bool
    incarnation_frozen: bool
    acceptance_log_frozen: bool
    fresh_client_resolved: bool
    reads_completed: bool

    @property
    def holds(self) -> bool:
        return (
            self.refused_node_matches
            and self.incarnation_frozen
            and self.acceptance_log_frozen
            and self.fresh_client_resolved
            and self.reads_completed
        )

    def summary(self) -> str:
        return (
            "quorum-loss proof: remap refused with old binding: "
            f"{self.refused_node_matches}, incarnation frozen: "
            f"{self.incarnation_frozen}, acceptance log frozen: "
            f"{self.acceptance_log_frozen}, outage-born client resolved: "
            f"{self.fresh_client_resolved}, reads completed: "
            f"{self.reads_completed} -> "
            + ("HOLDS" if self.holds else "VIOLATED")
        )


@dataclass
class DirectorySoakReport(ReportCore):
    """Outcome of one directory soak run."""

    phases: list[str] = field(default_factory=list)
    remapped_incarnation: int = 0
    deferred_incarnation: int = 0
    quorum_loss: QuorumLossProof | None = None
    monitor_recoveries: int = 0
    duplicate_triggers: int = 0
    anti_entropy_adopted: int = 0
    placement_digest: str = ""
    directory_digest: str = ""

    @property
    def passed(self) -> bool:
        return (
            self.ok
            and self.quorum_loss is not None
            and self.quorum_loss.holds
        )

    def summary(self) -> str:
        return "\n".join(
            [
                self.header("directory soak"),
                *(f"  {phase}" for phase in self.phases),
                f"  remaps: minority-quorum incarnation="
                f"{self.remapped_incarnation}, post-heal deferred "
                f"incarnation={self.deferred_incarnation}",
                "  "
                + (
                    self.quorum_loss.summary()
                    if self.quorum_loss is not None
                    else "quorum-loss proof: NOT RUN"
                ),
                f"  monitor recoveries={self.monitor_recoveries} "
                f"duplicate triggers={self.duplicate_triggers} "
                f"anti-entropy adopted={self.anti_entropy_adopted}",
                self.faults_line(),
                f"  history   digest: {self.history_digest}",
                f"  ledger    digest: {self.ledger_digest}",
                f"  placement digest: {self.placement_digest}",
                f"  directory digest: {self.directory_digest}",
                f"  violations: {len(self.violations)}",
                *self.tail_lines(),
                verdict_line(self.passed, self.seed),
            ]
        )


def run_directory_soak(config: DirectorySoakConfig) -> DirectorySoakReport:
    """Run one seeded directory soak; deterministic for a fixed config."""
    config.validate()
    report = DirectorySoakReport(seed=config.seed)
    clients = client_config(config)
    h = SoakHarness(
        config,
        report,
        name="directory-soak",
        tag=TAG,
        salt=SALT,
        # The replica ids ride in the fault-plan node list: metadata
        # traffic gets the same drops/dups/delays as data traffic, for
        # free.  No gray node: quorum membership is the subject.
        plan=network_plan(
            config,
            [f"storage-{slot}" for slot in range(config.pool)]
            + [f"dir-{i}" for i in range(config.directory_replicas)],
        ),
        client_ids=[f"dirsoak-{i}" for i in range(config.clients)],
        clients=clients,
        pool=config.pool,
        directory_replicas=config.directory_replicas,
    )
    cluster, stripes, run_ops = h.cluster, h.stripes, h.run_ops
    placement = cluster.placement
    qdir = cluster.qdirectory
    assert placement is not None and qdir is not None

    # Prefill: every stripe holds data and (crucially) every slot
    # binding has been committed through the quorum at least once, so
    # the shared last-known cache covers the whole namespace before any
    # fault lands.
    h.prefill()
    run_ops(config.ops_per_phase)
    report.phases.append(f"phase 0 baseline: stripes={len(stripes)}")

    # -- phase 1: minority replica crash + storage crash ----------------
    # The remap of slot_a must be decided by a 2-of-3 quorum.
    down_replica = cluster.crash_directory_replica(0)
    slot_a = placement.lookup(stripes[0])[1][0]
    node_a = cluster.crash_storage(slot_a)
    run_ops(config.ops_per_phase)
    # Traffic may or may not have touched slot_a's stripes; settle the
    # remap decision deterministically through the degraded quorum.
    qdir.remap(slot_a, node_a)
    report.remapped_incarnation = qdir.incarnation(slot_a)
    if report.remapped_incarnation < 1:
        report.violations.append(
            f"minority quorum: slot {slot_a} never reached incarnation 1"
        )
    report.phases.append(
        f"phase 1 minority: crashed {down_replica} + {node_a}; "
        f"slot {slot_a} remapped at incarnation "
        f"{report.remapped_incarnation} via 2/3 quorum"
    )

    # -- phase 2: replica restart ---------------------------------------
    cluster.restart_directory_replica(0)
    run_ops(config.ops_per_phase)
    report.phases.append(f"phase 2 restart: {down_replica} rejoined")

    # -- phase 3: partition a replica from the quorum client ------------
    partitioned = cluster.directory_replica_ids[1]
    cluster.transport.partition([partitioned], [qdir.client_id])
    run_ops(config.ops_per_phase)
    cluster.transport.heal([partitioned], [qdir.client_id])
    run_ops(config.ops_per_phase // 2)
    report.phases.append(
        f"phase 3 partition: {partitioned} cut from {qdir.client_id}, healed"
    )

    # -- phase 4: quorum loss -------------------------------------------
    lost = [
        cluster.crash_directory_replica(1),
        cluster.crash_directory_replica(2),
    ]
    survivor = cluster.directory_nodes[0]
    # A storage node dies *while the metadata plane has no quorum*: the
    # remap must be refused, nothing decided, and reads must keep
    # flowing off cached bindings + degraded decode.
    slot_b = next(
        s
        for s in placement.lookup(stripes[-1])[1]
        if s != slot_a
    )
    inc_before = qdir.incarnation(slot_b)  # cached (quorum is down)
    log_before = len(survivor.acceptance_log)
    node_b = cluster.crash_storage(slot_b)
    refused = qdir.remap(slot_b, node_b)
    # A client born during the outage has an empty per-client cache and
    # must still resolve slots through the shared last-known state.
    outage_client = cluster.client("dirsoak-outage", clients)
    try:
        data = outage_client.read_block(0)
        fresh_resolved = bytes(data[:VALUE_WIDTH]) != b""
    except ReproError:
        fresh_resolved = False
    read_failures = run_ops(config.ops_per_phase, reads_only=True)
    report.quorum_loss = QuorumLossProof(
        refused_node_matches=refused == node_b,
        incarnation_frozen=(
            survivor.committed_state()
            .get(("slot", slot_b), (None, None))[1]
            .incarnation
            == inc_before
        ),
        acceptance_log_frozen=len(survivor.acceptance_log) == log_before,
        fresh_client_resolved=fresh_resolved,
        reads_completed=read_failures == 0,
    )
    if not report.quorum_loss.holds:
        report.violations.append(report.quorum_loss.summary())
    report.phases.append(
        f"phase 4 quorum loss: crashed {lost}; remap of slot {slot_b} "
        f"refused -> {refused}"
    )

    # -- phase 5: heal + deferred remap + rebalance ---------------------
    cluster.restart_directory_replica(1)
    cluster.restart_directory_replica(2)
    # The deferred remap now completes through the restored quorum.
    qdir.remap(slot_b, node_b)
    report.deferred_incarnation = qdir.incarnation(slot_b)
    if report.deferred_incarnation != inc_before + 1:
        report.violations.append(
            f"heal: slot {slot_b} at incarnation "
            f"{report.deferred_incarnation}, expected {inc_before + 1}"
        )
    run_ops(config.ops_per_phase)
    new_slots = cluster.add_storage(config.grow)
    placement.propose(placement.members() | set(new_slots))
    pending = placement.pending_stripes(stripes)
    rebalancer = cluster.rebalancer(
        "dirsoak-reb", ClientConfig(rpc_timeout=config.rpc_timeout)
    )
    migrated = rebalancer.migrate_all(pending)
    run_ops(config.ops_per_phase // 2)
    report.phases.append(
        f"phase 5 heal: deferred remap -> incarnation "
        f"{report.deferred_incarnation}; grew pool by {len(new_slots)}, "
        f"migrated {len(migrated.records)} stripes to gen "
        f"{placement.latest_gen} through the quorum"
    )

    # -- settle: stop injecting, converge, drive to quiescence ----------
    cluster.chaos.disable()
    report.anti_entropy_adopted = qdir.anti_entropy()
    report.monitor_recoveries, report.duplicate_triggers = h.quiesce(
        "dirsoak-driver", config.quiesce_rounds
    )
    report.violations += [
        str(v)
        for v in check_quiescence(
            cluster,
            stripes,
            invariants=STRIPE_INVARIANTS + ("placement_agrees",),
        )
    ]
    report.violations += [str(v) for v in check_directory(cluster)]
    if h.obs is not None:
        registry = h.obs.registry
        if registry.sum_counter("directory_remaps_refused_total") < 1:
            report.violations.append(
                "quorum loss never recorded a refused remap: the soak did "
                "not exercise the degraded write path"
            )
        if registry.sum_counter("directory_degraded_reads_total") < 1:
            report.violations.append(
                "quorum loss never recorded a degraded directory read: the "
                "soak did not exercise the cached-binding path"
            )
    report.placement_digest = placement.digest()
    report.directory_digest = qdir.digest()
    h.finish(
        quorum_loss=(
            report.quorum_loss.summary()
            if report.quorum_loss is not None
            else None
        ),
    )
    return report


# ----------------------------------------------------------------------
# directory crash-point sweep
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PointSweepOutcome:
    """One directory crash point: died there, then the retry converged."""

    point: str
    crashed: bool
    resumed_node: str
    incarnation: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.crashed and self.incarnation == 1 and not self.violations


@dataclass(frozen=True)
class PointSweepReport:
    """Sweep over every ``directory.*`` crash window."""

    seed: int
    outcomes: tuple[PointSweepOutcome, ...]

    @property
    def passed(self) -> bool:
        return all(o.ok for o in self.outcomes)

    def summary(self) -> str:
        lines = [f"directory crash-point sweep: seed={self.seed}"]
        for o in self.outcomes:
            lines.append(
                f"  {o.point}: crashed={o.crashed} resumed->{o.resumed_node} "
                f"incarnation={o.incarnation} "
                + ("ok" if o.ok else f"VIOLATIONS={list(o.violations)}")
            )
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


def run_directory_point_sweep(seed: int = 23) -> PointSweepReport:
    """Kill a remap proposer at each ``directory.*`` window and prove the
    next proposer converges on a single decision.

    ``before_prepare`` leaves nothing anywhere; ``before_commit`` leaves
    promises plus an orphaned provisioned node the deterministic
    provisioner re-names identically; ``before_apply`` leaves a *chosen*
    value no replica has committed — the retry's prepare quorum must
    surface and adopt it.  After each retry the directory invariants
    (``directory_agrees``, ``no_split_brain``) and the stripe invariants
    must hold, and the stripe must be readable again after recovery.
    """
    outcomes = []
    for offset, point in enumerate(DIRECTORY_POINTS):
        assert point in CRASH_POINT_CATALOGUE
        cluster = Cluster(
            2, 4, block_size=32, pool=6, seed=seed + offset,
            directory_replicas=3,
        )
        placement = cluster.placement
        qdir = cluster.qdirectory
        assert placement is not None and qdir is not None
        import numpy as np

        writer = cluster.protocol_client("sweep-writer")
        raw = f"s{seed % 997:03d}p{offset:06d}".encode().ljust(32, b".")
        payload = np.frombuffer(raw, dtype=np.uint8).copy()
        for stripe in range(4):
            writer.write(stripe, 0, payload)

        victim = placement.lookup(0)[1][0]
        failed = cluster.crash_storage(victim)
        plan = CrashPlan()
        plan.arm(point)
        qdir.crashpoints = plan
        crashed = False
        try:
            qdir.remap(victim, failed)
        except ClientCrash as crash:
            crashed = crash.point == point
        finally:
            qdir.crashpoints = NULL_CRASHPOINTS

        # The "next proposer": same directory client, fresh attempt.  It
        # must converge on exactly one decision whichever window the
        # first proposer died in.
        resumed = qdir.remap(victim, failed)
        incarnation = qdir.incarnation(victim)
        qdir.anti_entropy()

        violations = [str(v) for v in check_directory(cluster)]
        reader = cluster.protocol_client(
            "sweep-reader", ClientConfig(degraded_reads=True)
        )
        try:
            got = reader.read(0, 0)
            if bytes(got[: len(raw)]) != raw:
                violations.append(f"{point}: reread returned wrong bytes")
        except ReproError as exc:
            violations.append(f"{point}: reread failed: {exc!r}")
        monitor = Monitor(writer, stale_after=0.0)
        monitor.sweep(range(4), deep=True)
        violations += [
            str(v)
            for v in check_quiescence(
                cluster, range(4), invariants=STRIPE_INVARIANTS
            )
        ]
        outcomes.append(
            PointSweepOutcome(
                point=point,
                crashed=crashed,
                resumed_node=resumed,
                incarnation=incarnation,
                violations=tuple(violations),
            )
        )
    return PointSweepReport(seed=seed, outcomes=tuple(outcomes))
