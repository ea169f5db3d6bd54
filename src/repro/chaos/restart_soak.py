"""Crash-*restart* soak: durable nodes vs fail-remap, byte for byte.

``run_restart_soak`` drives the same seeded workload twice, against two
clusters that differ only in what a storage-node crash *means*:

* **restart** — the node is crashed with ``policy="restart"``: its slot
  is pinned (remaps no-op), the downtime is ridden out with degraded
  reads and aborted writes, the node's :class:`~repro.storage.wal.WalStore`
  takes seeded media damage, and ``Cluster.restart_storage`` later
  replays the WAL.  A clean replay rejoins the node with its pre-crash
  state, so the post-restart repair (a *deep* monitor sweep) touches
  only the stripes whose writes the node missed while down.
* **remap** — the paper's §3.5 model: the crashed node is gone, the
  slot remaps to a fresh ``INIT`` replacement, and a full rebuild sweep
  reconstructs every stripe the node served.

Both runs see the same op sequence, the same network fault plan and —
where applicable — the same media fault plan, all derived from one
seed.  Repair traffic is metered as ``reconstruct`` request bytes over
the first crash/repair window; the headline assertion is the paper's
economic argument for durable nodes: **restart recovery must move
strictly fewer bytes than fail-remap rebuild** for the same downtime.

The second crash cycle forces a torn WAL tail (``media_force="torn"``)
in the restart run, exercising the degradation path: dirty replay is
detected, the node rejoins fresh ``INIT``, and the monitor repairs it
like a remapped replacement — the cost of media damage is a remap, the
cost is never silent corruption.

As in the chaos soak, every read is checked against multi-writer
regular-register semantics (writes aborted during downtime are
recorded as *maybe applied*: forever in flight, admissible but never
superseding), the settle phase scrubs parity, and every node's
persisted store is audited against its in-memory state.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from repro.chaos.harness import (
    SettledCore,
    SoakHarness,
    client_config,
    network_plan,
    verdict_line,
)
from repro.client.monitor import Monitor
from repro.client.rebuild import Rebuilder
from repro.core.cluster import RestartReport
from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry
from repro.storage.wal import MediaFaultPlan, WalStore

#: Payload letter and op-stream seed salt: this soak's own constants.
TAG = "r"
SALT = (6151, 3)


@dataclass(frozen=True)
class RestartSoakConfig:
    """Tunables for one restart soak; everything flows from ``seed``."""

    seed: int = 11
    ops: int = 160
    k: int = 2
    n: int = 4
    block_size: int = 64
    #: Logical block namespace; sized so the stripe count dwarfs the
    #: handful of stripes written during a downtime window (that gap is
    #: exactly what the restart-vs-remap byte comparison measures).
    blocks: int = 28
    read_fraction: float = 0.35
    gc_every: int = 20
    #: Which slot crashes (both cycles, both policies).
    crash_slot: int = 1
    #: Op indices bracketing the two downtime windows: the node is
    #: crashed before op ``crash`` and brought back (restart policy) or
    #: bulk-rebuilt (remap policy) before op ``restore``.
    window_a: tuple[int, int] = (40, 52)
    window_b: tuple[int, int] = (104, 116)

    # -- client budgets: small, so downtime writes abort rather than
    # -- spin for the whole window ---------------------------------------
    rpc_timeout: float = 0.05
    suspicion_threshold: int = 6
    max_write_attempts: int = 3
    max_op_attempts: int = 10
    recovery_wait_limit: int = 20

    # -- network fault intensities (no gray node: the crash/restart
    # -- cycles are the stars here) --------------------------------------
    drop: float = 0.02
    dup: float = 0.04
    delay: float = 0.0001
    jitter: float = 0.0003

    # -- media fault intensities (WAL crash-time damage) -----------------
    torn: float = 0.04
    lost: float = 0.04
    exposure: int = 4

    # -- observability ---------------------------------------------------
    #: Attach a metrics registry + shared tracer to each policy's
    #: cluster.  Safe to leave on: fault decisions and digests are
    #: independent of it.
    observe: bool = True
    #: Directory for flight-recorder dumps (None disables dumping).  A
    #: dump fires whenever a restart replays dirty (the node degrades
    #: to INIT) and when a policy run ends not-ok.
    flight_dir: str | None = None


@dataclass
class PolicyOutcome(SettledCore):
    """One policy's half of the comparison.  ``op_failures`` counts only
    failures *outside* any downtime window (must be zero)."""

    policy: str = ""
    #: Op failures inside a downtime window (expected for the restart
    #: policy: the pinned slot makes full-stripe writes impossible).
    downtime_aborts: int = 0
    #: ``reconstruct`` request bytes during each crash/repair window.
    repair_bytes: list[int] = field(default_factory=list)
    #: Stripes repaired by the post-restore sweep of each window.
    repaired_stripes: list[int] = field(default_factory=list)
    restart_reports: list[RestartReport] = field(default_factory=list)
    recoveries: int = 0
    rpc_timeouts: int = 0
    media_digest: str = ""
    #: Flight-recorder dumps written when a restart replayed dirty (an
    #: end-of-run failure lands in ``flight_path``).
    flight_paths: list[str] = field(default_factory=list)


@dataclass
class RestartSoakReport:
    """Outcome of one restart soak (both policy runs)."""

    seed: int
    config: RestartSoakConfig | None = None
    restart: PolicyOutcome | None = None
    remap: PolicyOutcome | None = None
    duration: float = 0.0

    @property
    def bytes_restart(self) -> int:
        return self.restart.repair_bytes[0] if self.restart else 0

    @property
    def bytes_remap(self) -> int:
        return self.remap.repair_bytes[0] if self.remap else 0

    @property
    def comparison_valid(self) -> bool:
        """The byte comparison presumes cycle A's WAL replayed clean.
        A seed whose media plan damaged the log degrades that cycle to
        a detected full rebuild — correct behavior, but it makes the
        economic claim vacuous for that seed."""
        reports = self.restart.restart_reports if self.restart else []
        return bool(reports) and reports[0].clean

    @property
    def passed(self) -> bool:
        if self.restart is None or self.remap is None:
            return False
        reports = self.restart.restart_reports
        return (
            self.restart.ok
            and self.remap.ok
            and len(reports) == 2
            # Window B's torn tail is forced: detection must fire.
            and not reports[1].clean
            # The headline: when cycle A replays clean, restart recovery
            # moved strictly fewer bytes than fail-remap rebuild for the
            # same downtime window.
            and (
                not self.comparison_valid
                or self.bytes_restart < self.bytes_remap
            )
        )

    @property
    def metrics(self) -> dict:
        """The restart policy is the headline run; its snapshot is the
        artifact (the remap run's counters live in ``remap.metrics``)."""
        return self.restart.metrics if self.restart else {}

    def summary(self) -> str:
        lines = [
            f"restart soak: seed={self.seed} "
            f"ops={self.restart.ops_run if self.restart else 0}/policy "
            f"duration={self.duration:.2f}s",
        ]
        for outcome in (self.restart, self.remap):
            if outcome is None:
                continue
            lines.append(
                f"  [{outcome.policy}] downtime aborts={outcome.downtime_aborts} "
                f"other failures={outcome.op_failures} "
                f"recoveries={outcome.recoveries} "
                f"repaired stripes={outcome.repaired_stripes} "
                f"repair bytes={outcome.repair_bytes}"
            )
            for rep in outcome.restart_reports:
                lines.append(
                    f"    restart slot {rep.slot}: "
                    + (
                        f"clean, {rep.blocks_restored} blocks / "
                        f"{rep.records_replayed} records replayed"
                        if rep.clean
                        else f"dirty ({rep.reason}); rejoined fresh INIT"
                    )
                )
            lines.append(
                f"    violations={len(outcome.violations)} "
                f"parity clean={outcome.parity_clean} "
                f"store-vs-memory clean={outcome.store_clean}"
            )
            lines.append(
                f"    digests: history={outcome.history_digest} "
                f"ledger={outcome.ledger_digest} media={outcome.media_digest}"
            )
            lines += [f"    flight recorder: {p}" for p in outcome.flight_paths]
            lines += outcome.tail_lines("    ")
        if self.comparison_valid:
            lines.append(
                f"  window-A repair bytes: restart={self.bytes_restart} "
                f"< remap={self.bytes_remap}: "
                f"{self.bytes_restart < self.bytes_remap}"
            )
        else:
            reports = self.restart.restart_reports if self.restart else []
            reason = reports[0].reason if reports else "no restart ran"
            lines.append(
                f"  window-A byte comparison: n/a — cycle A replay was "
                f"dirty ({reason}); the node degraded to INIT as designed"
            )
        lines.append(verdict_line(self.passed, self.seed))
        return "\n".join(lines)


def _in_window(i: int, config: RestartSoakConfig) -> bool:
    a, b = config.window_a, config.window_b
    return a[0] <= i < a[1] or b[0] <= i < b[1]


def _run_policy(config: RestartSoakConfig, policy: str) -> PolicyOutcome:
    """One full workload under one crash policy; fully seed-determined."""
    outcome = PolicyOutcome(seed=config.seed, policy=policy)
    media_plan = MediaFaultPlan(
        seed=config.seed * 31 + 7,
        torn=config.torn,
        lost=config.lost,
        exposure=config.exposure,
    )
    crashes = {config.window_a[0]: 0, config.window_b[0]: 1}
    restores = {config.window_a[1]: 0, config.window_b[1]: 1}
    window_start = 0

    def reconstruct_bytes() -> int:
        return cluster.transport.metrics.sum_counter(
            "rpc_bytes_sent_total", op="reconstruct"
        )

    def crash(cycle: int) -> None:
        force = "torn" if cycle == 1 and policy == "restart" else None
        cluster.crash_storage(
            config.crash_slot, policy=policy, media_force=force
        )

    def restore(cycle: int) -> list[int]:
        """End a downtime window; returns the stripes repaired."""
        if policy == "restart":
            restart_report = cluster.restart_storage(config.crash_slot)
            outcome.restart_reports.append(restart_report)
            if not restart_report.clean:
                # The node degraded to INIT: capture the trace ring and
                # metrics as they stood at the moment of degradation.
                path = h.dump_flight(
                    "dirty WAL replay degraded node to INIT",
                    f"-{policy}-degraded-cycle{cycle}",
                    policy=policy,
                    cycle=cycle,
                    slot=restart_report.slot,
                    replay_reason=restart_report.reason,
                )
                if path:
                    outcome.flight_paths.append(path)
            return monitor.sweep(h.stripes, deep=True).recovered_stripes
        # Fail-remap: a bulk rebuild sweep reconstructs every stripe the
        # lost node served (here: all of them — n slots, rotated layout).
        return rebuilder.rebuild(h.stripes).recovered

    def before_op(i: int) -> None:
        nonlocal window_start
        if i in crashes:
            window_start = reconstruct_bytes()
            crash(crashes[i])
        if i in restores:
            repaired = restore(restores[i])
            outcome.repaired_stripes.append(len(repaired))
            outcome.repair_bytes.append(reconstruct_bytes() - window_start)

    def downtime_abort(i: int, exc: ReproError) -> str | None:
        if not _in_window(i, config):
            return None
        outcome.downtime_aborts += 1
        return "DOWNTIME-ABORT"

    h = SoakHarness(
        config,
        outcome,
        name="restart-soak",
        tag=TAG,
        salt=SALT,
        # No gray node: the crash/restart cycles are the stars here.
        plan=network_plan(
            config, [f"storage-{slot}" for slot in range(config.n)]
        ),
        client_ids=["restart-soak"],
        clients=client_config(
            config,
            max_write_attempts=config.max_write_attempts,
            max_op_attempts=config.max_op_attempts,
            recovery_wait_limit=config.recovery_wait_limit,
        ),
        gc_every=config.gc_every,
        before_op=before_op,
        classify=downtime_abort,
        store_factory=lambda slot: WalStore(plan=media_plan, tag=f"slot{slot}"),
    )
    cluster = h.cluster
    if h.obs is None:
        # Repair bytes are read from the registry's wire counters, so an
        # unobserved run meters with a private one; metrics never steer
        # the protocol, so the digests are the same either way.
        cluster.transport.metrics = MetricsRegistry()
    protocol = h.volumes[0].protocol
    # Repair agents.  The monitor's staleness probe uses wall-clock age,
    # which a seeded soak must not depend on — stale_after=inf leaves
    # the deep find_consistent check as the only (deterministic) trigger.
    monitor = Monitor(protocol, stale_after=math.inf)
    rebuilder = Rebuilder(protocol)

    h.run_ops(config.ops)
    h.settle("restart-settle")
    outcome.recoveries = h.stat("recoveries_completed")
    outcome.rpc_timeouts = h.stat("rpc_timeouts")
    outcome.media_digest = h.media_digest()
    h.finish(f"-{policy}-failed", policy=policy)
    return outcome


def run_restart_soak(config: RestartSoakConfig) -> RestartSoakReport:
    """Run the two-policy comparison; deterministic for a fixed config."""
    a, b = config.window_a, config.window_b
    if not (0 < a[0] < a[1] < b[0] < b[1] <= config.ops):
        raise ValueError(
            f"crash windows {a} / {b} must be disjoint and inside "
            f"[1, ops={config.ops}]"
        )
    report = RestartSoakReport(seed=config.seed, config=config)
    started = time.perf_counter()
    report.restart = _run_policy(config, "restart")
    report.remap = _run_policy(config, "remap")
    report.duration = time.perf_counter() - started
    return report
