"""Crash-consistency soak harness: a seeded workload under chaos.

``run_soak`` stands up a live :class:`~repro.core.cluster.Cluster`
whose transport is wrapped in a :class:`~repro.net.chaos.ChaosTransport`
running a generated :class:`~repro.net.chaos.FaultPlan` (drops, delays,
duplication, one gray node), drives a multi-client read/write workload
against it, and then checks what the paper promises survives:

* every read satisfied multi-writer **regular-register** semantics
  (:mod:`repro.analysis.registers`);
* after the dust settles, every touched stripe passes a **parity
  scrub** — the erasure-code equations hold end to end;
* every node's **persisted store matches its in-memory state** (the
  nodes run on :class:`~repro.storage.wal.WalStore` by default), which
  catches write-back and logging bugs the parity check cannot see.

Everything — the fault plan, the workload, and the fault decisions —
derives from one seed, and the workload issues ops from a single
driver thread (clients are distinct protocol identities; the protocol's
own fan-out still runs in parallel underneath).  Per-link fault
decisions are pure functions of the op sequence on that link, so a
fixed seed yields the same op history and the same injected-fault
ledger on every run: a soak failure is reproduced by re-running with
the printed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chaos.harness import (
    SettledCore,
    SoakHarness,
    client_config,
    network_plan,
    verdict_line,
)
from repro.storage.wal import WalStore

#: Payload letter and op-stream seed salt: this soak's own constants.
TAG = "s"
SALT = (7919, 11)


@dataclass(frozen=True)
class SoakConfig:
    """Tunables for one soak run; everything flows from ``seed``."""

    seed: int = 7
    ops: int = 200
    clients: int = 2
    k: int = 2
    n: int = 4
    block_size: int = 64
    #: Logical block namespace the workload reads/writes.
    blocks: int = 12
    read_fraction: float = 0.4
    #: GC runs synchronously every this many ops (0 disables).
    gc_every: int = 25
    #: Back every node with a WalStore so the final audit can compare
    #: persisted vs in-memory state (False = state-only nodes).
    durable: bool = True

    # -- deadline machinery under test ----------------------------------
    rpc_timeout: float = 0.05
    suspicion_threshold: int = 2

    # -- fault intensities ----------------------------------------------
    drop: float = 0.04
    dup: float = 0.06
    delay: float = 0.0002
    jitter: float = 0.0006
    #: Gray-node stall; far above rpc_timeout so every call into the
    #: gray node times out rather than merely lagging.
    gray_stall: float = 5.0
    gray_window: tuple[int, int] = (8, 60)

    # -- observability ---------------------------------------------------
    #: Attach a metrics registry + shared tracer to the cluster.  Safe
    #: to leave on: fault decisions and digests are independent of it.
    observe: bool = True
    #: Directory for a flight-recorder dump when the soak fails (None
    #: disables dumping).
    flight_dir: str | None = None


@dataclass
class SoakReport(SettledCore):
    """Outcome of one soak run."""

    rpc_timeouts: int = 0
    remaps: int = 0
    recoveries: int = 0

    def summary(self) -> str:
        return "\n".join(
            [
                self.header("chaos soak"),
                self.faults_line(),
                f"  rpc timeouts={self.rpc_timeouts} remaps={self.remaps} "
                f"recoveries={self.recoveries}",
                f"  history digest: {self.history_digest}",
                f"  ledger  digest: {self.ledger_digest}",
                f"  regular-register violations: {len(self.violations)}",
                *self.settle_lines(),
                *self.tail_lines(),
                verdict_line(self.passed, self.seed),
            ]
        )


def run_soak(config: SoakConfig) -> SoakReport:
    """Run one seeded soak; deterministic for a fixed config."""
    report = SoakReport(seed=config.seed)
    h = SoakHarness(
        config,
        report,
        name="chaos-soak",
        tag=TAG,
        salt=SALT,
        plan=network_plan(
            config,
            [f"storage-{slot}" for slot in range(config.n)],
            gray_stall=config.gray_stall,
            gray_window=config.gray_window,
        ),
        client_ids=[f"soak-{i}" for i in range(config.clients)],
        clients=client_config(config),
        gc_every=config.gc_every,
        # Durable nodes, fault-free media: the chaos soak exercises the
        # *network* fault axis; disk faults belong to the restart soak.
        store_factory=(
            (lambda slot: WalStore(tag=f"slot{slot}"))
            if config.durable
            else None
        ),
    )
    h.run_ops(config.ops)
    h.settle("soak-auditor")
    report.rpc_timeouts = h.stat("rpc_timeouts")
    report.remaps = h.stat("remaps")
    report.recoveries = h.stat("recoveries_completed")
    h.finish()
    return report
