"""End-to-end integrity soak: seeded wire + media corruption.

``run_corruption_soak`` drives a read/write workload against a cluster
where blocks get silently damaged on *both* axes the integrity layer
defends:

* **wire** — the chaos transport's ``corrupt`` fault flips one bit in
  read-response payloads (seeded, ledgered 1:1 like every other fault
  kind), exercising the client's verified-read path: the damage must be
  classified as in-flight, the read retried, and the node's breaker
  left alone (its copy is intact);
* **media** — periodic crash/restart cycles with ``media_force="flip"``
  silently damage the last synced WAL frame of a rotating node.  The
  frame is re-sealed with a fresh CRC, so replay is *clean* and the
  node comes back serving corrupt bytes behind a stale content
  fingerprint — exactly the at-rest fault the fingerprint RPC, the
  degraded-read fallback, the recovery liar filter and the
  :class:`~repro.client.scrub.SamplingAuditor` exist to catch.

The soak then checks the promises end to end:

* **no corruption served** — every read value in the recorded history
  is one some write actually produced
  (:func:`~repro.analysis.invariants.check_no_corruption_served`), on
  top of the regular-register condition;
* **wire ledger reconciles** — every ``corrupt`` event in the fault
  ledger is matched by exactly one wire-classified detection in some
  client's corruption log (single driver, verified reads on: nothing
  mangled in flight goes unnoticed);
* **media coverage** — every *effective* media injection (found by a
  post-restart fingerprint scan of the restarted node, the injector's
  own bookkeeping) is either detected — at a verified read, by the
  sampling auditor, by the recovery liar filter, or by the settle
  parity scrub (which catches fingerprint-laundered damage: an ``add``
  re-seals the digest over corrupt redundant bytes, invisible to
  fingerprints but not to the code equations) — or destroyed by a
  legitimate full-block overwrite before anything could observe it;
* **quiescence** — after repair, every stripe passes the full
  invariant pack *plus* ``fingerprints_match``, the store matches
  memory, and a full-coverage audit sweep finds nothing.

Determinism: one seed drives the workload, the fault plan, the crash
schedule and every audit sample; the workload runs on a single driver
thread, so the op history, both fault ledgers and all digests are
identical on every run with the same config.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.invariants import (
    STRIPE_INVARIANTS,
    check_no_corruption_served,
    check_stripe,
)
from repro.chaos.harness import (
    VALUE_WIDTH,
    SettledCore,
    SoakHarness,
    client_config,
    verdict_line,
)
from repro.client.scrub import SamplingAuditor
from repro.core.cluster import Cluster
from repro.net.chaos import FaultPlan
from repro.storage.state import OpMode, content_fingerprint
from repro.storage.wal import WalStore

#: Payload letter and op-stream seed salt: this soak's own constants.
TAG = "c"
SALT = (6007, 13)


@dataclass(frozen=True)
class CorruptionSoakConfig:
    """Tunables for one corruption soak; everything flows from ``seed``."""

    seed: int = 5
    ops: int = 400
    clients: int = 2
    k: int = 2
    n: int = 4
    block_size: int = 64
    blocks: int = 12
    read_fraction: float = 0.5
    gc_every: int = 25

    rpc_timeout: float = 0.05
    suspicion_threshold: int = 2

    #: Per-read-response probability of a seeded in-flight bit flip.
    corrupt: float = 0.08
    #: Every this many ops, sync + crash + restart a rotating node with
    #: a forced silent media flip on its last WAL frame (0 disables).
    flip_every: int = 60
    #: Every this many ops, run one sampling-audit sweep (0 disables).
    audit_every: int = 30
    #: Fingerprint probes per mid-workload audit sweep.
    audit_samples: int = 8

    observe: bool = True
    flight_dir: str | None = None


@dataclass
class CorruptionSoakReport(SettledCore):
    """Outcome of one corruption soak run."""

    media_digest: str = ""

    # -- wire axis -------------------------------------------------------
    wire_injected: int = 0  # ledger "corrupt" events
    wire_detected: int = 0  # wire-classified corruption-log entries
    wire_reconciled: bool = False  # the two match exactly

    # -- media axis ------------------------------------------------------
    flips_forced: int = 0  # crash cycles run
    media_injected: int = 0  # effective injections (post-restart scan)
    media_detected: int = 0  # injected pairs seen by any detector
    media_overwritten: int = 0  # injected pairs destroyed by later writes
    media_covered: bool = False  # detected + overwritten == injected
    #: (stripe, index) pairs: injected / detected-by-anyone.
    injected_pairs: list[tuple[int, int]] = field(default_factory=list)
    detected_pairs: list[tuple[int, int]] = field(default_factory=list)

    # -- auditing --------------------------------------------------------
    audit_sweeps: int = 0
    audit_probes: int = 0
    audit_hits: int = 0
    scrub_located: int = 0  # laundered damage caught by settle parity scrub
    reads_verified: int = 0
    corruptions_logged: int = 0
    final_audit_clean: bool = False
    recoveries: int = 0

    @property
    def passed(self) -> bool:
        return (
            self.ok
            and self.wire_reconciled
            and self.media_covered
            and self.final_audit_clean
            and self.wire_detected > 0
            and self.media_detected > 0
        )

    def summary(self) -> str:
        return "\n".join(
            [
                self.header("corruption soak"),
                f"  wire: injected={self.wire_injected} "
                f"detected={self.wire_detected} "
                f"reconciled={self.wire_reconciled}",
                f"  media: crashes={self.flips_forced} "
                f"effective={self.media_injected} "
                f"detected={self.media_detected} "
                f"overwritten={self.media_overwritten} "
                f"covered={self.media_covered}",
                f"  audit: sweeps={self.audit_sweeps} "
                f"probes={self.audit_probes} hits={self.audit_hits} "
                f"scrub-located={self.scrub_located}",
                f"  reads verified={self.reads_verified} "
                f"corruption log entries={self.corruptions_logged} "
                f"recoveries={self.recoveries}",
                f"  history digest: {self.history_digest}",
                f"  ledger  digest: {self.ledger_digest}",
                f"  media   digest: {self.media_digest}",
                f"  invariant violations: {len(self.violations)}",
                *self.settle_lines(),
                f"  final full audit clean: {self.final_audit_clean}",
                *self.tail_lines(),
                verdict_line(self.passed, self.seed),
            ]
        )


def _scan_node(cluster: Cluster, slot: int) -> set[tuple[int, int]]:
    """Injector bookkeeping: (stripe, index) pairs on ``slot`` whose
    live bytes no longer match their sealed fingerprint — the effective
    media injections a forced flip actually produced (a flip landing on
    a superseded frame, or on metadata replay never surfaces)."""
    node = cluster.node_for_slot(slot)
    out: set[tuple[int, int]] = set()
    for addr in node.addresses():
        st = node.peek(addr)
        if (
            st.opmode is OpMode.NORM
            and st.fingerprint is not None
            and content_fingerprint(st.block) != st.fingerprint
        ):
            out.add((addr.stripe, addr.index))
    return out


def run_corruption_soak(config: CorruptionSoakConfig) -> CorruptionSoakReport:
    """Run one seeded corruption soak; deterministic for a fixed config."""
    report = CorruptionSoakReport(seed=config.seed)
    clients = client_config(config, verified_reads=True)
    h = SoakHarness(
        config,
        report,
        name="corruption-soak",
        tag=TAG,
        salt=SALT,
        plan=FaultPlan.generate(
            config.seed,
            [f"storage-{slot}" for slot in range(config.n)],
            corrupt=config.corrupt,
        ),
        client_ids=[f"soak-{i}" for i in range(config.clients)],
        clients=clients,
        gc_every=config.gc_every,
        # Fault-free media plan: the only disk damage is the forced
        # flip at each crash, so injections are exactly enumerable.
        store_factory=lambda slot: WalStore(tag=f"slot{slot}"),
    )
    cluster, stripes = h.cluster, h.stripes
    audit_client = cluster.protocol_client("soak-audit", clients)
    auditor = SamplingAuditor(
        audit_client,
        seed=config.seed,
        samples_per_sweep=config.audit_samples,
        repair=True,
    )
    injected: set[tuple[int, int]] = set()

    for done in range(1, config.ops + 1):
        h.run_ops(1)
        if config.flip_every and done % config.flip_every == 0:
            # Silent at-rest damage: sync (so the restored image is
            # exactly the pre-crash state — no write-back rollback to
            # confuse the register history), crash with a forced flip,
            # restart, then record what the flip actually hit.
            slot = report.flips_forced % config.n
            cluster.stores[slot].sync()
            cluster.crash_storage(slot, policy="restart", media_force="flip")
            restart = cluster.restart_storage(slot)
            assert restart.clean, "flip must re-seal the CRC: replay is clean"
            report.flips_forced += 1
            injected |= _scan_node(cluster, slot)
        if config.audit_every and done % config.audit_every == 0:
            sweep = auditor.sweep(stripes)
            report.audit_sweeps += 1
            report.audit_probes += sweep.samples
            report.audit_hits += len(sweep.hits)

    # -- settle: stop injecting, repair everything, audit the claims ----
    cluster.chaos.disable()
    for volume in h.volumes:
        volume.collect_garbage()
        volume.collect_garbage()

    # Full-coverage audit: probe every (stripe, position) fingerprint;
    # repairs anything still hiding behind a stale digest.
    pairs = len(stripes) * config.n
    full = SamplingAuditor(
        audit_client,
        seed=config.seed + 1,
        samples_per_sweep=pairs,
        repair=True,
    ).sweep(stripes)
    report.audit_probes += full.samples
    report.audit_hits += len(full.hits)

    # Parity scrub: catches fingerprint-laundered damage (an ``add``
    # onto corrupt redundant bytes re-seals the digest; only the code
    # equations still witness the flip).
    settle_client, settle_scrub = h.settle("soak-settle")
    report.scrub_located = len(settle_scrub.corrupt_blocks)

    # Final full audit sweep must come up empty-handed.
    final = SamplingAuditor(
        audit_client, seed=config.seed + 2, samples_per_sweep=pairs,
        repair=False,
    ).sweep(stripes)
    report.final_audit_clean = not final.hits and final.skipped == 0

    # -- invariants (finish() adds the regular-register check) ----------
    violations = check_no_corruption_served(
        h.recorder.history(), initial=bytes(VALUE_WIDTH)
    )
    pack = STRIPE_INVARIANTS + ("fingerprints_match",)
    for stripe in stripes:
        violations += check_stripe(cluster, stripe, invariants=pack)
    report.violations = [str(v) for v in violations]

    # -- reconciliation --------------------------------------------------
    protocols = [v.protocol for v in h.volumes] + [audit_client]
    corruption_log = [c for p in protocols for c in p.corruption_log]
    report.corruptions_logged = len(corruption_log)
    report.reads_verified = sum(p.stats.verified_reads for p in protocols)
    report.recoveries = sum(
        p.stats.recoveries_completed for p in protocols + [settle_client]
    )
    report.wire_injected = cluster.chaos.ledger_counts().get("corrupt", 0)
    report.wire_detected = sum(
        1 for c in corruption_log if c.source == "wire"
    )
    report.wire_reconciled = report.wire_detected == report.wire_injected

    detected = {
        (c.stripe, c.index)
        for c in corruption_log
        if c.source in ("media", "audit")
    }
    detected |= set(settle_scrub.corrupt_blocks)
    report.injected_pairs = sorted(injected)
    report.detected_pairs = sorted(detected)
    report.media_injected = len(injected)
    report.media_detected = len(injected & detected)
    # An injection neither detector saw must have been destroyed by a
    # later full-block write (swap/reconstruct replaces content *and*
    # digest); the final clean audit + fingerprints_match prove nothing
    # actually survived.
    report.media_overwritten = len(injected - detected)
    report.media_covered = (
        report.media_detected + report.media_overwritten
        == report.media_injected
    )
    report.media_digest = h.media_digest()
    h.finish(
        injected_pairs=report.injected_pairs,
        detected_pairs=report.detected_pairs,
    )
    return report
