"""Gray-node soak: prove hedged reads cut tail latency, reproducibly.

A *gray* node is the failure the paper's fail-stop model cannot name:
alive, correct, and slow.  Suspicion thresholds eventually condemn a
node that times out, but a node that is merely 10-100x slower than its
peers never trips them — every read that lands on it simply eats the
stall.  Hedged degraded reads (:mod:`repro.client.health`) are the
mitigation: wait a hedging delay, then race a k-of-n reconstruct
against the slow primary and take the first winner.

``run_gray_soak`` measures that mitigation end to end.  It preloads a
block namespace fault-free, then runs the *same seeded read workload*
three times against the *same fault plan* (one node's read path stalled
for the whole phase):

* once un-hedged — the baseline, where every gray-hit read pays the
  full stall;
* twice hedged — the second run proving the injected-fault digest and
  the observed-value digest both reproduce.

The soak passes when hedged read p99 is strictly below the un-hedged
p99, all three runs injected the same fault multiset (same plan, same
workload → same faults), the two hedged runs' digests are identical,
and no read failed.  An optional overload burst then hammers a small
admission-limited cluster with more concurrent readers than the limit
and asserts the resulting ``NodeBusyError`` sheds *never* triggered a
remap or a recovery — overload is not damage.

Determinism notes: the stall rule is unconditional over the gray link's
``read`` ops, so fault decisions do not depend on per-link op counts
and the fault *multiset* is identical across modes (hedged runs add
``get_state`` traffic, which shifts counts but injects nothing).  Read
values are deterministic (single-threaded driver, fault-free preload),
so the history digest is too.  Latencies are wall clock — only their
*comparison* is asserted, with the stall chosen ~4x the hedging delay
so the margin dwarfs scheduler noise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.chaos.harness import (
    ReportCore,
    SoakHarness,
    digest,
    payload,
    verdict_line,
)
from repro.client.config import ClientConfig
from repro.core.cluster import Cluster
from repro.errors import ReproError
from repro.net.chaos import FaultPlan, FaultRule
from repro.net.rpc import pfor
from repro.obs.metrics import summarize

#: Payload letter and op-stream seed salt: this soak's own constants.
TAG = "g"
SALT = (31, 7)


@dataclass(frozen=True)
class GraySoakConfig:
    """Tunables for one gray soak; everything flows from ``seed``."""

    seed: int = 23
    #: Measured read ops per phase run.
    reads: int = 160
    k: int = 2
    n: int = 4
    block_size: int = 64
    #: Logical block namespace (preloaded fault-free, then read-only).
    blocks: int = 12
    #: Gray-node stall applied to every ``read`` op on the gray link.
    #: Kept below ``rpc_timeout``: the node is slow, never suspected.
    stall: float = 0.08
    #: Fixed hedging delay (bypasses the EWMA derivation so the
    #: baseline/hedged comparison is exact and seeded).  Far enough
    #: above a healthy local read that healthy reads never hedge.
    hedge_delay: float = 0.02
    rpc_timeout: float = 1.0

    # -- optional overload burst ----------------------------------------
    overload: bool = True
    overload_limit: int = 2
    overload_clients: int = 8
    overload_reads_per_client: int = 30
    #: Large blocks give the hot node a real (GIL-releasing) service
    #: time, so concurrent arrivals actually queue and the bounded
    #: queue overflows; tiny blocks serve faster than threads arrive.
    overload_block_size: int = 1 << 18

    # -- observability ---------------------------------------------------
    observe: bool = True
    #: Directory for a flight-recorder dump when the soak fails.
    flight_dir: str | None = None


@dataclass
class GrayPhaseResult(ReportCore):
    """One workload run (one mode) against the shared fault plan.

    ``history_digest`` covers the observable read history;
    ``ledger_digest`` here is over the injected-fault *multiset*
    (kind, src, dst, op) x count — invariant to benign cross-mode count
    shifts."""

    mode: str = ""  # "unhedged" | "hedged" | "hedged-rerun"
    reads: int = 0
    #: Reads that landed on the gray node's stalled path (= stall
    #: events in the chaos ledger; the primary is always issued).
    gray_hits: int = 0
    p50: float = 0.0
    p99: float = 0.0
    mean: float = 0.0
    worst: float = 0.0
    hedges_fired: int = 0
    hedge_wins: dict[str, int] = field(default_factory=dict)


@dataclass
class OverloadResult:
    """Aggregates from the admission-control burst (no per-op data)."""

    attempts: int = 0
    op_failures: int = 0
    admission_rejects: int = 0
    busy_retries: int = 0
    remaps: int = 0
    recoveries: int = 0

    @property
    def clean(self) -> bool:
        """Sheds happened, every read still finished, and overload
        never masqueraded as failure (no remap, no recovery)."""
        return (
            self.admission_rejects > 0
            and self.op_failures == 0
            and self.remaps == 0
            and self.recoveries == 0
        )


@dataclass
class GraySoakReport:
    """Outcome of one gray soak."""

    seed: int
    duration: float = 0.0
    unhedged: GrayPhaseResult | None = None
    hedged: GrayPhaseResult | None = None
    hedged_rerun: GrayPhaseResult | None = None
    overload: OverloadResult | None = None
    #: Registry snapshot and cost-model audit of the observed (first
    #: hedged) phase: hedge fan-outs and stall-timeouts must explain
    #: all excess wire traffic.  None = not observed.
    metrics: dict = field(default_factory=dict)
    cost_conformant: bool | None = None
    cost_report: dict = field(default_factory=dict)
    flight_path: str | None = None

    @property
    def p99_improved(self) -> bool:
        return (
            self.hedged is not None
            and self.unhedged is not None
            and self.hedged.p99 < self.unhedged.p99
        )

    @property
    def digests_stable(self) -> bool:
        """The two hedged runs observed identical values and injected
        identical faults."""
        return (
            self.hedged is not None
            and self.hedged_rerun is not None
            and self.hedged.history_digest == self.hedged_rerun.history_digest
            and self.hedged.ledger_digest == self.hedged_rerun.ledger_digest
        )

    @property
    def plans_identical(self) -> bool:
        """Hedged and un-hedged runs saw the same fault multiset."""
        return (
            self.hedged is not None
            and self.unhedged is not None
            and self.hedged.ledger_digest == self.unhedged.ledger_digest
            and self.hedged.history_digest == self.unhedged.history_digest
        )

    @property
    def passed(self) -> bool:
        phases = (self.unhedged, self.hedged, self.hedged_rerun)
        return (
            all(p is not None for p in phases)
            and all(p.passed for p in phases)
            and all(p.gray_hits > 0 for p in phases)
            and self.hedged.hedges_fired > 0
            and self.p99_improved
            and self.digests_stable
            and self.plans_identical
            and (self.overload is None or self.overload.clean)
        )

    def summary(self) -> str:
        lines = [
            f"gray soak: seed={self.seed} duration={self.duration:.2f}s"
        ]
        for phase in (self.unhedged, self.hedged, self.hedged_rerun):
            if phase is None:
                continue
            wins = ", ".join(
                f"{w}={c}" for w, c in sorted(phase.hedge_wins.items())
            )
            lines.append(
                f"  {phase.mode:>12}: reads={phase.reads} "
                f"gray_hits={phase.gray_hits} failures={phase.op_failures} "
                f"p50={phase.p50 * 1e3:.1f}ms p99={phase.p99 * 1e3:.1f}ms "
                f"hedges={phase.hedges_fired}"
                + (f" wins[{wins}]" if wins else "")
            )
            lines.append(
                f"               history={phase.history_digest} "
                f"ledger={phase.ledger_digest}"
            )
        if self.unhedged and self.hedged and self.unhedged.p99 > 0:
            cut = 100.0 * (1.0 - self.hedged.p99 / self.unhedged.p99)
            lines.append(
                f"  hedging cut read p99 by {cut:.0f}% "
                f"({self.unhedged.p99 * 1e3:.1f}ms -> "
                f"{self.hedged.p99 * 1e3:.1f}ms): {self.p99_improved}"
            )
        lines.append(
            f"  digests stable across hedged reruns: {self.digests_stable}"
        )
        lines.append(
            f"  hedged vs un-hedged fault plans identical: "
            f"{self.plans_identical}"
        )
        if self.hedged is not None:
            lines += self.hedged.tail_lines(mode="bounded, hedged phase")
        if self.overload is not None:
            o = self.overload
            lines.append(
                f"  overload burst: attempts={o.attempts} "
                f"admission_rejects={o.admission_rejects} "
                f"busy_retries={o.busy_retries} remaps={o.remaps} "
                f"recoveries={o.recoveries} clean={o.clean}"
            )
        if self.flight_path:
            lines.append(f"  flight recorder: {self.flight_path}")
        lines.append(verdict_line(self.passed, self.seed))
        return "\n".join(lines)


def _gray_plan(config: GraySoakConfig, gray_node: str) -> FaultPlan:
    """One rule: the gray node's read path stalls, unconditionally.

    The stall is applied to ``read`` ops only — the data-plane path a
    hedge can race — and not to ``get_state``, so the reconstruct leg
    reaches n-1 healthy peers (a reconstruct that must also wait on the
    gray node would measure nothing).
    """
    return FaultPlan(
        [FaultRule(dst=gray_node, op="read", stall=config.stall)],
        seed=config.seed,
    )


def _run_phase(
    config: GraySoakConfig, mode: str, hedged: bool, observe: bool
) -> SoakHarness:
    result = GrayPhaseResult(seed=config.seed, mode=mode)
    h = SoakHarness(
        replace(config, observe=observe),
        result,
        name="gray-soak",
        tag=TAG,
        salt=SALT,
        plan=_gray_plan(config, "storage-0"),
        client_ids=["gray-reader"],
        clients=ClientConfig(
            rpc_timeout=config.rpc_timeout,
            degraded_reads=True,
            hedged_reads=hedged,
            hedge_delay=config.hedge_delay,
        ),
    )
    chaos = h.cluster.chaos
    # Preload fault-free: the measured phase is read-only, so every
    # run (and mode) starts from byte-identical stripes.
    chaos.disable()
    h.prefill(TAG)
    chaos.enable()
    h.run_ops(config.reads, reads_only=True)

    latencies = h.read_latencies
    result.reads = config.reads
    summary = summarize(latencies)
    result.p50 = summary["p50"] or 0.0
    result.p99 = summary["p99"] or 0.0
    result.mean = sum(latencies) / len(latencies) if latencies else 0.0
    result.worst = max(latencies, default=0.0)
    result.hedges_fired = h.stat("hedged_reads")
    result.gray_hits = chaos.ledger_counts().get("stall", 0)
    if h.obs is not None:
        for winner in ("primary", "reconstruct"):
            count = h.obs.registry.counter_value(
                "hedged_reads_total", winner=winner
            )
            if count:
                result.hedge_wins[winner] = int(count)
    h.finish()
    # Multiset digest: counts per (kind, src, dst, op).  Hedged runs
    # add get_state traffic on the gray link, shifting per-event link
    # op counts without changing what was injected — so the multiset,
    # not the counted ledger key, is the cross-mode invariant.
    multiset: dict[tuple[str, str, str, str], int] = {}
    for kind, src, dst, op, _count in chaos.ledger_key():
        key = (kind, src, dst, op)
        multiset[key] = multiset.get(key, 0) + 1
    result.ledger_digest = digest(repr(sorted(multiset.items())))
    return h


def _run_overload(config: GraySoakConfig) -> OverloadResult:
    """Hammer an admission-limited cluster; sheds must stay benign."""
    result = OverloadResult()
    cluster = Cluster(
        k=config.k,
        n=config.n,
        block_size=config.overload_block_size,
        seed=config.seed,
        admission_limit=config.overload_limit,
    )
    loader = cluster.client("ovl-loader")
    loader.write_block(0, payload(TAG, config.seed, 0, "b"))
    clients = [
        cluster.client(f"ovl-{i}") for i in range(config.overload_clients)
    ]

    # Every client hammers the same hot block, so all requests converge
    # on one node and its bounded queue actually fills; spreading reads
    # over the namespace rarely exceeds the per-node limit.
    def burst(i: int) -> int:
        failures = 0
        for _ in range(config.overload_reads_per_client):
            try:
                clients[i].read_block(0)
            except ReproError:
                failures += 1
        return failures

    assert cluster.transport.admission is not None
    # Whether a given burst overflows the queue depends on thread
    # scheduling; what must hold is that once sheds happen they are
    # benign.  Re-burst a few times until the queue actually overflowed
    # (each burst is ~tens of ms).
    for _ in range(5):
        outcomes = pfor(list(range(config.overload_clients)), burst)
        result.attempts += (
            config.overload_clients * config.overload_reads_per_client
        )
        result.op_failures += sum(
            v for v in outcomes.values() if isinstance(v, int)
        ) + sum(1 for v in outcomes.values() if not isinstance(v, int))
        result.admission_rejects = cluster.transport.admission.total_rejects()
        if result.admission_rejects > 0:
            break
    result.busy_retries = sum(
        c.protocol.stats.busy_rejections for c in clients
    )
    result.remaps = sum(c.protocol.stats.remaps for c in clients)
    result.recoveries = sum(
        c.protocol.stats.recoveries_completed for c in clients
    )
    return result


def run_gray_soak(config: GraySoakConfig) -> GraySoakReport:
    """Run one seeded gray soak; see the module docstring for phases."""
    report = GraySoakReport(seed=config.seed)
    started = time.perf_counter()
    report.unhedged = _run_phase(config, "unhedged", False, False).report
    observed = _run_phase(config, "hedged", True, config.observe)
    report.hedged = hedged = observed.report
    report.hedged_rerun = _run_phase(config, "hedged-rerun", True, False).report
    if config.overload:
        report.overload = _run_overload(config)
    report.metrics = hedged.metrics
    report.cost_conformant = hedged.cost_conformant
    report.cost_report = hedged.cost_report
    report.duration = time.perf_counter() - started
    if not report.passed:
        report.flight_path = observed.dump_flight(
            "gray soak failed its invariants",
            unhedged_p99=report.unhedged.p99,
            hedged_p99=hedged.p99,
            digests_stable=report.digests_stable,
            plans_identical=report.plans_identical,
            cost_report=report.cost_report,
        )
    return report
