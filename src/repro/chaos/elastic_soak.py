"""Elastic-cluster soak: grow, rebalance, and decommission under chaos.

``run_elastic_soak`` stands up a placement-mode cluster (``pool=N``:
stripes assigned to n of N slots by the versioned consistent-hash map)
and drives it through membership waves while a seeded workload keeps
reading and writing:

1. **Grow** the pool in two waves (``pool_start`` → midpoint →
   ``pool_peak``), each followed by a live rebalance that migrates
   every touched stripe to the new map generation while workload ops
   interleave between migration chunks.
2. **Decommission** ``decommission`` of the original members: propose a
   generation without them, migrate everything off, *prove* no stripe
   still maps to them, then fail-stop them and keep serving.

Each wave's rebalancer is armed with one of the ``rebalance.*`` crash
points in rotation (``before_copy`` → ``before_commit`` →
``after_commit``), dies mid-wave, and a fresh rebalancer resumes from
``pending_stripes`` — so every run exercises crash-resume at every
window of the migration protocol.  Network chaos (drops, duplicates,
delays) runs throughout; it is disabled only for the final settle.

After the waves the soak drives the cluster to quiescence
(monitor/recovery rounds, GC drain, final sweep — the explorer's
sequence) and checks:

* the six PR 5 stripe invariants plus ``placement_agrees``
  (:mod:`repro.analysis.invariants`);
* ``rebalance_bytes_bounded`` — bytes moved stay within
  ``bytes_factor`` × the bytes owned by remapped stripes, summed over
  waves;
* the recorded history satisfies regular-register semantics;
* the chaos ledger reconciles against the metrics registry;
* stale clients actually exercised the refetch path
  (``stale_refetches`` > 0 — a soak where no cache ever went stale
  proves nothing about invalidation-on-remap).

Determinism: one driver thread, one seed.  The report carries three
digests — op history, injected-fault ledger, and the placement map
itself — and two same-seed runs must produce all three identically.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.analysis.invariants import (
    STRIPE_INVARIANTS,
    check_quiescence,
    check_rebalance_bytes,
)
from repro.chaos.harness import (
    ReportCore,
    SoakHarness,
    client_config,
    network_plan,
    verdict_line,
)
from repro.client.config import ClientConfig
from repro.core.cluster import Cluster
from repro.crashpoints import CrashPlan
from repro.errors import ClientCrash

#: Payload letter and op-stream seed salt: this soak's own constants.
TAG = "e"
SALT = (6151, 29)

#: The mid-migration crash windows, in rotation across waves.
REBALANCE_POINTS: tuple[str, ...] = (
    "rebalance.before_copy",
    "rebalance.before_commit",
    "rebalance.after_commit",
)


@dataclass(frozen=True)
class ElasticSoakConfig:
    """Tunables for one elastic soak; everything flows from ``seed``."""

    seed: int = 11
    k: int = 2
    n: int = 4
    #: Pool sizes for the membership waves: start → midpoint →
    #: ``pool_peak``, then ``decommission`` original members leave.
    pool_start: int = 8
    pool_peak: int = 24
    decommission: int = 4
    block_size: int = 64
    #: Logical block namespace the workload reads/writes.
    blocks: int = 12
    clients: int = 2
    #: Workload ops before each wave, plus a trickle between migration
    #: chunks (live traffic *during* the rebalance, not just around it).
    ops_per_wave: int = 30
    migrate_chunk: int = 4
    read_fraction: float = 0.4
    #: ``rebalance_bytes_bounded`` slack factor (crash-resumed
    #: migrations copy some stripes twice).
    bytes_factor: float = 2.0
    #: Arm one rebalance.* crash point per wave (rotation); False runs
    #: the waves crash-free.
    crash_rebalancer: bool = True

    # -- deadline machinery under test ----------------------------------
    rpc_timeout: float = 0.05
    suspicion_threshold: int = 2

    # -- fault intensities (no gray node: elastic churn is the subject) -
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
        if self.pool_start < self.n:
            raise ValueError(
                f"pool_start={self.pool_start} cannot host n={self.n}"
            )
        if self.pool_peak <= self.pool_start:
            raise ValueError("pool_peak must exceed pool_start (grow waves)")
        if self.pool_peak - self.decommission < self.n:
            raise ValueError(
                f"decommissioning {self.decommission} of {self.pool_peak} "
                f"leaves fewer than n={self.n} members"
            )
        if self.decommission < 1 or self.decommission > self.pool_start:
            raise ValueError(
                "decommission must name 1..pool_start original members"
            )


def smoke_config(seed: int = 11) -> ElasticSoakConfig:
    """The CI-sized soak: one quarter the churn, same code paths."""
    return ElasticSoakConfig(
        seed=seed,
        pool_start=6,
        pool_peak=10,
        decommission=2,
        blocks=8,
        ops_per_wave=12,
    )


@dataclass
class ElasticSoakReport(ReportCore):
    """Outcome of one elastic soak run."""

    pool_final: int = 0
    generations: int = 0
    waves: list[str] = field(default_factory=list)
    #: Migration result -> count, over every rebalance pass.
    migrations: dict[str, int] = field(default_factory=dict)
    crash_resumes: int = 0
    bytes_moved: int = 0
    bytes_owned: int = 0
    stale_refetches: int = 0
    monitor_recoveries: int = 0
    duplicate_triggers: int = 0
    unfinished: list[int] = field(default_factory=list)
    placement_digest: str = ""

    @property
    def passed(self) -> bool:
        return self.ok and not self.unfinished

    def summary(self) -> str:
        migrations = ", ".join(
            f"{result}={count}"
            for result, count in sorted(self.migrations.items())
        )
        return "\n".join(
            [
                self.header("elastic soak"),
                f"  pool: final={self.pool_final} "
                f"generations={self.generations}",
                *(f"  {wave}" for wave in self.waves),
                f"  migrations: {migrations or 'none'} "
                f"(crash-resumes={self.crash_resumes})",
                f"  rebalance bytes: moved={self.bytes_moved} "
                f"owned={self.bytes_owned} "
                f"(bound {self.bytes_factor_line()})",
                f"  stale refetches={self.stale_refetches} "
                f"monitor recoveries={self.monitor_recoveries} "
                f"duplicate triggers={self.duplicate_triggers}",
                self.faults_line(),
                f"  history   digest: {self.history_digest}",
                f"  ledger    digest: {self.ledger_digest}",
                f"  placement digest: {self.placement_digest}",
                f"  violations: {len(self.violations)}",
                *self.tail_lines(),
                verdict_line(self.passed, self.seed),
            ]
        )

    def bytes_factor_line(self) -> str:
        if not self.bytes_owned:
            return "n/a"
        return f"{self.bytes_moved / self.bytes_owned:.2f}x"


def run_elastic_soak(config: ElasticSoakConfig) -> ElasticSoakReport:
    """Run one seeded elastic soak; deterministic for a fixed config."""
    config.validate()
    report = ElasticSoakReport(seed=config.seed)
    h = SoakHarness(
        config,
        report,
        name="elastic-soak",
        tag=TAG,
        salt=SALT,
        # No gray node: membership churn is the subject.
        plan=network_plan(
            config, [f"storage-{slot}" for slot in range(config.pool_start)]
        ),
        client_ids=[f"elastic-{i}" for i in range(config.clients)],
        clients=client_config(config),
        pool=config.pool_start,
    )
    cluster, run_ops = h.cluster, h.run_ops
    placement = cluster.placement
    assert placement is not None

    def tally(record) -> None:
        report.migrations[record.result] = (
            report.migrations.get(record.result, 0) + 1
        )
        report.bytes_moved += record.bytes_moved

    # An all-INIT stripe has nothing consistent to copy.
    h.prefill()
    stripes = h.stripes

    # -- membership waves ----------------------------------------------
    midpoint = config.pool_start + (config.pool_peak - config.pool_start) // 2
    original = list(range(config.pool_start))
    victims = original[: config.decommission]
    waves: list[tuple[str, int]] = [
        ("grow", midpoint),
        ("grow", config.pool_peak),
        ("shrink", config.decommission),
    ]
    pool_now = config.pool_start

    for wave_idx, (kind, target) in enumerate(waves):
        run_ops(config.ops_per_wave)
        if kind == "grow":
            if target <= pool_now:
                continue
            new_slots = cluster.add_storage(target - pool_now)
            members = placement.members() | set(new_slots)
            pool_now = target
        else:
            members = placement.members() - set(victims)
            pool_now = len(members)
        placement.propose(members)
        moved = placement.moved_stripes(stripes)
        report.bytes_owned += len(moved) * config.n * config.block_size
        pending = placement.pending_stripes(stripes)

        point = REBALANCE_POINTS[wave_idx % len(REBALANCE_POINTS)]
        crash_plan = CrashPlan()
        if config.crash_rebalancer and len(pending) > 1:
            # Fire on the second stripe reaching the window, so the wave
            # always holds both a completed and a crashed migration.
            crash_plan.arm(point, hit=2)
        rebalancer = cluster.rebalancer(
            f"reb-w{wave_idx}",
            ClientConfig(rpc_timeout=config.rpc_timeout),
            crashpoints=crash_plan,
        )
        crashed_at: str | None = None
        for start in range(0, len(pending), config.migrate_chunk):
            chunk = pending[start : start + config.migrate_chunk]
            try:
                for stripe in chunk:
                    tally(rebalancer.migrate(stripe))
            except ClientCrash as crash:
                crashed_at = crash.point
                cluster.crash_client(rebalancer.client_id)
                break
            run_ops(2)  # live traffic between migration chunks
        if crashed_at is not None:
            report.crash_resumes += 1
            resume = cluster.rebalancer(
                f"reb-w{wave_idx}-resume",
                ClientConfig(rpc_timeout=config.rpc_timeout),
            )
            for record in resume.migrate_all(
                placement.pending_stripes(stripes)
            ).records:
                tally(record)
        run_ops(config.migrate_chunk)  # traffic against the new placement
        report.waves.append(
            f"wave {wave_idx} {kind}: pool={pool_now} "
            f"gen={placement.latest_gen} moved={len(moved)}"
            + (f" crashed@{crashed_at}" if crashed_at else "")
        )

        if kind == "shrink":
            # The decommission proof: nothing maps to the victims...
            stuck = [
                s
                for s in stripes
                if set(placement.lookup(s)[1]) & set(victims)
            ]
            if stuck:
                report.violations.append(
                    f"decommission: stripes {stuck} still placed on "
                    f"victims {victims}"
                )
                continue
            # ...so failing them loses nothing; reads must keep working.
            for slot in victims:
                cluster.transport.crash(cluster.directory.node_id(slot))
            run_ops(config.migrate_chunk)

    report.pool_final = pool_now
    report.generations = placement.latest_gen

    # -- settle: stop injecting, drive to quiescence, audit -------------
    report.monitor_recoveries, report.duplicate_triggers = h.quiesce(
        "elastic-driver", config.quiesce_rounds
    )
    report.violations += [
        str(v)
        for v in check_quiescence(
            cluster,
            stripes,
            invariants=STRIPE_INVARIANTS + ("placement_agrees",),
        )
    ]
    report.violations += [
        str(v)
        for v in check_rebalance_bytes(
            report.bytes_moved,
            report.bytes_owned // (config.n * config.block_size),
            config.n,
            config.block_size,
            factor=config.bytes_factor,
        )
    ]
    report.unfinished = sorted(
        s
        for s in stripes
        if placement.committed_gen(s) < placement.latest_gen
    )
    report.stale_refetches = h.stat("stale_refetches")
    if report.stale_refetches == 0:
        report.violations.append(
            "no client ever took the stale-refetch path: the soak did not "
            "exercise invalidation-on-remap"
        )
    report.placement_digest = placement.digest()
    h.finish(unfinished=report.unfinished)
    return report


# ----------------------------------------------------------------------
# graceful-degradation proof
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DegradationProof:
    """Evidence that a mid-migration crash leaves the stripe serving.

    Produced by :func:`prove_graceful_degradation`: the rebalancer died
    at ``rebalance.before_commit`` (copy done, map untouched), and a
    fresh reader still got the right bytes at the *old* placement and
    generation; a later pass then finished the migration and the same
    read succeeded at the new placement.
    """

    stripe: int
    crashed_at: str
    gen_before: int
    readable_while_degraded: bool
    gen_unchanged_while_degraded: bool
    resumed_gen: int
    readable_after_resume: bool

    @property
    def holds(self) -> bool:
        return (
            self.readable_while_degraded
            and self.gen_unchanged_while_degraded
            and self.readable_after_resume
        )

    passed = holds

    def summary(self) -> str:
        return (
            f"graceful degradation: stripe {self.stripe} crashed at "
            f"{self.crashed_at}; readable at old placement "
            f"(gen {self.gen_before}): {self.readable_while_degraded}, "
            f"gen unchanged: {self.gen_unchanged_while_degraded}; after "
            f"resume (gen {self.resumed_gen}) readable: "
            f"{self.readable_after_resume} -> "
            + ("HOLDS" if self.holds else "VIOLATED")
        )


def prove_graceful_degradation(seed: int = 11) -> DegradationProof:
    """Crash a migration at ``rebalance.before_commit`` and *prove* the
    stripe stays readable at its old placement — the ISSUE's graceful-
    degradation requirement, demonstrated rather than asserted."""
    import numpy as np

    cluster = Cluster(2, 4, block_size=32, pool=6, seed=seed)
    placement = cluster.placement
    assert placement is not None
    writer = cluster.protocol_client("deg-writer")
    payloads = {
        s: np.frombuffer(
            hashlib.blake2b(f"{seed}:{s}".encode(), digest_size=32).digest(),
            dtype=np.uint8,
        ).copy()
        for s in range(6)
    }
    for stripe, value in payloads.items():
        writer.write(stripe, 0, value)

    cluster.add_storage(4)
    placement.propose(set(range(10)))
    moved = placement.moved_stripes(range(6))
    assert moved, "grow moved no stripes; enlarge the pool delta"
    victim = moved[0]
    gen_before = placement.committed_gen(victim)

    crash_plan = CrashPlan()
    crash_plan.arm("rebalance.before_commit")
    rebalancer = cluster.rebalancer("deg-reb", crashpoints=crash_plan)
    crashed_at = ""
    try:
        rebalancer.migrate(victim)
    except ClientCrash as crash:
        crashed_at = crash.point
        cluster.crash_client(rebalancer.client_id)
    assert crashed_at == "rebalance.before_commit"

    reader = cluster.protocol_client(
        "deg-reader", ClientConfig(degraded_reads=True)
    )
    got = reader.read(victim, 0)
    readable = bool(np.array_equal(got, payloads[victim]))
    gen_unchanged = placement.committed_gen(victim) == gen_before

    resume = cluster.rebalancer("deg-reb-resume")
    resume.migrate_all(placement.pending_stripes(range(6)))
    after = cluster.protocol_client(
        "deg-reader-2", ClientConfig(degraded_reads=True)
    )
    got_after = after.read(victim, 0)
    return DegradationProof(
        stripe=victim,
        crashed_at=crashed_at,
        gen_before=gen_before,
        readable_while_degraded=readable,
        gen_unchanged_while_degraded=gen_unchanged,
        resumed_gen=placement.committed_gen(victim),
        readable_after_resume=bool(np.array_equal(got_after, payloads[victim])),
    )
