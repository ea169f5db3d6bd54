"""The soak harness: how a seeded workload is driven against a cluster
and audited afterwards.

Every soak in this package is a *scenario* — the phases it runs, the
faults it arms, the checks nothing else has — written against one
:class:`SoakHarness`.  The harness owns everything the scenarios have in
common:

* the fixed-width :func:`payload` generator (a one-letter tag per soak);
* cluster + clients + :class:`~repro.analysis.registers.HistoryRecorder`
  + op log construction;
* :meth:`SoakHarness.run_ops`, the one seeded op loop, whose
  (block, is_read) stream is a
  :class:`~repro.workloads.patterns.UniformPattern`;
* the :meth:`~SoakHarness.prefill` and :meth:`~SoakHarness.read_back`
  sweeps;
* the two ways a run ends: :meth:`~SoakHarness.settle` (scrub-repair,
  scrub-verify, store-vs-memory) and :meth:`~SoakHarness.quiesce`
  (monitor rounds, GC drain, read-back);
* :meth:`~SoakHarness.finish`: register check, history / ledger
  digests, the observability audit (snapshot, trace count, ledger vs
  ``chaos_faults_total``, bounded cost conformance) and the flight dump
  on failure;
* :class:`ReportCore`, the fields and summary lines every report repeats.

Determinism is the contract: one driver thread, every random choice
drawn from the seed, so a fixed config yields the same op log and the
same injected-fault ledger on every run, observed or not.
"""

from __future__ import annotations

import hashlib
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.analysis.costmodel import CostAuditor, CostModel
from repro.analysis.invariants import check_history
from repro.analysis.registers import HistoryRecorder
from repro.client.config import ClientConfig
from repro.client.gc import GcManager
from repro.client.monitor import Monitor
from repro.client.protocol import ProtocolClient
from repro.client.scrub import ScrubReport, Scrubber
from repro.core.cluster import Cluster
from repro.errors import RecoveryFailedError, ReproError
from repro.net.chaos import FaultPlan
from repro.obs import Observability
from repro.storage.wal import WalStore
from repro.workloads.patterns import UniformPattern


def payload(tag: str, seed: int, index: int, unit: str = "i") -> bytes:
    """A written value: fixed width so reads map back exactly.  ``tag``
    names the soak; ``unit`` says what ``index`` counts (``i`` = op
    index, ``b`` = prefilled block)."""
    return f"{tag}{seed % 997:03d}{unit}{index:06d}".encode()


VALUE_WIDTH = len(payload("s", 0, 0))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def verdict_line(passed: bool, seed: int) -> str:
    return ("PASS" if passed else "FAIL") + f" (reproduce with --seed {seed})"


def network_plan(
    config, node_ids: list[str], gray_stall: float = 0.0, **extra
) -> FaultPlan:
    """The seeded drop/dup/delay/jitter plan most soaks run under (no
    gray node unless the scenario asks for one)."""
    return FaultPlan.generate(
        config.seed,
        node_ids,
        drop=config.drop,
        dup=config.dup,
        delay=config.delay,
        jitter=config.jitter,
        gray_stall=gray_stall,
        **extra,
    )


def client_config(config, **extra) -> ClientConfig:
    """Workload clients: tight deadlines, degraded reads on."""
    return ClientConfig(
        rpc_timeout=config.rpc_timeout,
        suspicion_threshold=config.suspicion_threshold,
        degraded_reads=True,
        **extra,
    )


@dataclass
class ReportCore:
    """What every soak report carries, and how it is printed."""

    seed: int
    ops_run: int = 0
    op_failures: int = 0
    duration: float = 0.0
    history_digest: str = ""
    ledger_digest: str = ""
    ledger_counts: dict[str, int] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    #: Registry snapshot (empty dict when the soak ran unobserved).
    metrics: dict = field(default_factory=dict)
    trace_events: int = 0
    #: Ledger-vs-registry audit: None = not observed; True = the
    #: ``chaos_faults_total`` counters match ``ledger_counts`` exactly.
    chaos_reconciled: bool | None = None
    #: Paper-cost-model conformance (bounded mode: every excess message
    #: must be explained by the fault ledger).  None = not observed.
    cost_conformant: bool | None = None
    #: Full ``CostAuditReport.to_json()`` payload when observed.
    cost_report: dict = field(default_factory=dict)
    #: Flight-recorder dump written when the run failed.
    flight_path: str | None = None

    @property
    def ok(self) -> bool:
        return (
            not self.violations
            and self.op_failures == 0
            and self.chaos_reconciled is not False
            and self.cost_conformant is not False
        )

    @property
    def passed(self) -> bool:
        return self.ok

    def failure_detail(self) -> dict:
        """What a flight dump records about why the run failed."""
        return {
            "violations": self.violations,
            "op_failures": self.op_failures,
            "cost_report": self.cost_report,
        }

    def header(self, title: str) -> str:
        return (
            f"{title}: seed={self.seed} ops={self.ops_run} "
            f"failures={self.op_failures} duration={self.duration:.2f}s"
        )

    def faults_line(self) -> str:
        faults = ", ".join(
            f"{kind}={count}"
            for kind, count in sorted(self.ledger_counts.items())
        )
        return f"  injected faults: {faults or 'none'}"

    def tail_lines(self, indent: str = "  ", mode: str = "bounded") -> list[str]:
        """Observability audit, flight dump and the violations themselves."""
        lines = []
        if self.chaos_reconciled is not None:
            lines.append(
                f"{indent}observability: trace events={self.trace_events} "
                f"ledger-vs-metrics reconciled={self.chaos_reconciled}"
            )
        if self.cost_conformant is not None:
            cost = self.cost_report
            lines.append(
                f"{indent}cost conformance ({mode}): "
                f"{'ok' if self.cost_conformant else 'VIOLATION'} "
                f"excess={cost.get('total_excess_messages', 0)} msgs, "
                f"explainers={cost.get('ledger_explainers', 0)} ledger + "
                f"{cost.get('retry_explainers', 0)} retry"
            )
        if self.flight_path:
            lines.append(f"{indent}flight recorder: {self.flight_path}")
        lines += [f"{indent}VIOLATION: {v}" for v in self.violations]
        return lines


@dataclass
class SettledCore(ReportCore):
    """A report whose run ended in :meth:`SoakHarness.settle`."""

    parity_clean: bool = False
    store_clean: bool = True
    store_mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return super().ok and self.parity_clean and self.store_clean

    def failure_detail(self) -> dict:
        return {
            **super().failure_detail(),
            "store_mismatches": self.store_mismatches,
        }

    def settle_lines(self) -> list[str]:
        return [
            f"  final parity scrub clean: {self.parity_clean}",
            f"  store-vs-memory clean: {self.store_clean}",
        ]

    def tail_lines(self, indent: str = "  ", mode: str = "bounded") -> list[str]:
        return super().tail_lines(indent, mode) + [
            f"{indent}STORE MISMATCH: {m}" for m in self.store_mismatches
        ]


class SoakHarness:
    """One seeded workload against one chaos-wrapped cluster.

    ``config`` is the scenario's config dataclass; the harness reads
    ``seed, k, n, block_size, blocks, observe, flight_dir`` (and
    ``read_fraction`` where the workload mixes writes in) from it.
    ``report`` is the scenario's :class:`ReportCore`, filled in place.
    ``salt`` is the scenario's ``(multiplier, offset)`` for the op-stream
    seed and ``tag`` its payload letter — constants that keep each
    soak's seeded behaviour its own.

    Hooks: ``before_op(i)`` runs ahead of op ``i`` (crash/restore
    schedules); ``classify(i, exc)`` names an *expected* failure (its
    label goes in the op log and it is not an ``op_failure``) or returns
    None.  A soak that tolerates aborts records its failed writes as
    maybe-applied, which is what the register check then has to allow.
    """

    def __init__(
        self,
        config,
        report: ReportCore,
        *,
        name: str,
        tag: str,
        salt: tuple[int, int],
        plan: FaultPlan,
        client_ids: list[str],
        clients: ClientConfig,
        gc_every: int = 0,
        before_op: Callable[[int], None] | None = None,
        classify: Callable[[int, ReproError], str | None] | None = None,
        **cluster_options,
    ):
        self.started = time.perf_counter()
        self.config = config
        self.report = report
        self.name = name
        self.tag = tag
        self.gc_every = gc_every
        self.before_op = before_op
        self.classify = classify
        self.obs = Observability.create() if config.observe else None
        self.cluster = Cluster(
            k=config.k,
            n=config.n,
            block_size=config.block_size,
            seed=config.seed,
            chaos_plan=plan,
            observability=self.obs,
            **cluster_options,
        )
        self.volumes = [self.cluster.client(cid, clients) for cid in client_ids]
        self.stripes = sorted(
            {
                self.cluster.layout.locate(block).stripe
                for block in range(config.blocks)
            }
        )
        # A read-only scenario never draws read-vs-write, so it need not
        # carry a read_fraction at all.
        self.pattern = UniformPattern(
            config.blocks,
            getattr(config, "read_fraction", 1.0),
            seed=config.seed * salt[0] + salt[1],
        )
        self.recorder = HistoryRecorder()
        self.oplog: list[str] = []
        #: Wall-clock latency of each successful workload read.
        self.read_latencies: list[float] = []
        self.next_op = 0

    # -- the op loop -----------------------------------------------------

    def _read(self, block: int, fetch: Callable[[], bytes]) -> bytes:
        with self.recorder.operation("read", key=block) as ctx:
            ctx.value = bytes(fetch()[:VALUE_WIDTH])
        return ctx.value

    def _write(self, volume, block: int, value: bytes) -> None:
        with self.recorder.operation(
            "write",
            key=block,
            value=value,
            incomplete_on_error=self.classify is not None,
        ):
            volume.write_block(block, value)

    def run_ops(self, count: int, reads_only: bool = False) -> int:
        """Drive the next ``count`` ops, round-robin over the clients;
        returns how many failed outright."""
        report = self.report
        failures_before = report.op_failures
        for _ in range(count):
            i = self.next_op
            self.next_op += 1
            if self.before_op is not None:
                self.before_op(i)
            volume = self.volumes[i % len(self.volumes)]
            who = volume.client_id
            # Draw order is part of every digest: block first, then
            # read-vs-write — and no second draw at all when reads_only.
            if reads_only:
                block, is_read = self.pattern.next_block(), True
            else:
                access = self.pattern.next_access()
                block, is_read = access.block, access.is_read
            try:
                if is_read:
                    began = time.perf_counter()
                    value = self._read(
                        block, lambda: volume.read_block(block)
                    )
                    self.read_latencies.append(time.perf_counter() - began)
                    self.oplog.append(f"{i} {who} read {block} -> {value!r}")
                else:
                    value = payload(self.tag, self.config.seed, i)
                    self._write(volume, block, value)
                    self.oplog.append(f"{i} {who} write {block} <- {value!r}")
            except ReproError as exc:
                label = self.classify(i, exc) if self.classify else None
                if label is None:
                    report.op_failures += 1
                    self.oplog.append(f"{i} {who} FAILED {exc!r}")
                else:
                    self.oplog.append(f"{i} {who} {label} {type(exc).__name__}")
            report.ops_run += 1
            if self.gc_every and (i + 1) % self.gc_every == 0:
                volume.collect_garbage()
        return report.op_failures - failures_before

    def prefill(self, tag: str = "p") -> None:
        """Write every block once through the first client, so no
        touched stripe is INIT when a fault or a migration reaches it."""
        volume = self.volumes[0]
        for block in range(self.config.blocks):
            value = payload(tag, self.config.seed, block, "b")
            self._write(volume, block, value)
            self.oplog.append(
                f"pre {volume.client_id} write {block} <- {value!r}"
            )

    def read_back(self, client: ProtocolClient) -> None:
        """Final recorded read of every block through a raw protocol
        client: what the register check judges the settled state by."""
        for block in range(self.config.blocks):
            loc = self.cluster.layout.locate(block)
            try:
                value = self._read(
                    block, lambda: client.read(loc.stripe, loc.data_index)
                )
                self.oplog.append(
                    f"fin {client.client_id} read {block} -> {value!r}"
                )
            except ReproError as exc:
                self.report.op_failures += 1
                self.oplog.append(
                    f"fin {client.client_id} FAILED {block} {exc!r}"
                )

    def stat(self, name: str) -> int:
        """One ``ProtocolStats`` counter summed over the workload clients."""
        return sum(getattr(v.protocol.stats, name) for v in self.volumes)

    # -- ending a run ----------------------------------------------------

    def settle(self, client_id: str) -> tuple[ProtocolClient, ScrubReport]:
        """Stop injecting, scrub-repair, scrub-verify, and audit every
        persisted store against memory.  Returns the settle client and
        the *repair* pass (what it located is evidence for some soaks).
        Needs a :class:`SettledCore` report."""
        self.cluster.chaos.disable()
        client = self.cluster.protocol_client(
            client_id, ClientConfig(degraded_reads=False)
        )
        repair = Scrubber(client, repair=True).scrub(self.stripes)
        verify = Scrubber(client, repair=False).scrub(self.stripes)
        report = self.report
        report.parity_clean = (
            verify.healthy and verify.clean == len(self.stripes)
        )
        report.store_mismatches = self.cluster.verify_store_consistency()
        report.store_clean = not report.store_mismatches
        return client, repair

    def quiesce(self, client_id: str, rounds: int) -> tuple[int, int]:
        """Stop injecting and drive to quiescence the way the explorer
        does: deep monitor sweeps until nothing needs recovery, a GC
        drain, a confirming sweep, then :meth:`read_back`.  Returns
        (monitor recoveries, duplicate triggers)."""
        self.cluster.chaos.disable()
        violations = self.report.violations
        driver = self.cluster.protocol_client(client_id)
        monitor = Monitor(driver, stale_after=0.0)
        recoveries = duplicates = 0
        quiet = False
        for _ in range(rounds):
            try:
                sweep = monitor.sweep(self.stripes, deep=True)
            except RecoveryFailedError as exc:
                violations.append(f"quiescence: recovery failed: {exc}")
                break
            recoveries += len(sweep.recovered_stripes)
            duplicates += sweep.duplicate_triggers
            if not sweep.recovered_stripes:
                quiet = True
                break
        if not quiet and not violations:
            violations.append(
                f"quiescence: monitor still found work after {rounds} rounds"
            )
        if quiet:
            gc = GcManager(driver)
            gc.run_once()
            gc.run_once()
            final = monitor.sweep(self.stripes, deep=True)
            if final.recovered_stripes:
                violations.append(
                    "quiescence: GC drain re-damaged stripes "
                    f"{final.recovered_stripes}"
                )
            self.read_back(driver)
        return recoveries, duplicates

    def media_digest(self) -> str:
        """Digest of every WAL store's media-fault ledger."""
        return digest(
            repr(
                [
                    (slot, store.media.ledger_key())
                    for slot, store in sorted(self.cluster.stores.items())
                    if isinstance(store, WalStore)
                ]
            )
        )

    def finish(self, flight_suffix: str = "", **flight_extra) -> None:
        """Register check, digests, observability audit, duration — and
        a flight dump when the report does not pass.  Call it last:
        ``report.passed`` must already reflect the scenario's own checks."""
        report, config, chaos = self.report, self.config, self.cluster.chaos
        report.violations += [
            str(v)
            for v in check_history(
                self.recorder.history(), bytes(VALUE_WIDTH)
            )
        ]
        report.history_digest = digest("\n".join(self.oplog))
        report.ledger_digest = digest(repr(chaos.ledger_key()))
        report.ledger_counts = chaos.ledger_counts()
        if self.obs is not None:
            registry = self.obs.registry
            report.metrics = registry.snapshot()
            report.trace_events = self.obs.tracer.count()
            # The ChaosTransport mirrors every ledger append into
            # ``chaos_faults_total{kind}``; any drift means instrumentation
            # lost or double-counted a fault.
            report.chaos_reconciled = all(
                registry.counter_value("chaos_faults_total", kind=kind) == count
                for kind, count in report.ledger_counts.items()
            ) and sum(report.ledger_counts.values()) == registry.sum_counter(
                "chaos_faults_total"
            )
            # With faults in play the audit runs bounded: measured traffic
            # may exceed the Fig. 1 figures only within a ledger/retry-
            # derived allowance, and any excess with an empty ledger is a
            # violation.
            model = CostModel(
                n=config.n, k=config.k, block_size=config.block_size,
                strategy="parallel",
            )
            audit = CostAuditor(model, fault_free=False).audit(
                report.metrics, ledger_counts=report.ledger_counts
            )
            report.cost_conformant = audit.passed
            report.cost_report = audit.to_json()
        report.duration = time.perf_counter() - self.started
        if not report.passed:
            report.flight_path = self.dump_flight(
                f"{self.name.replace('-', ' ')} failed its invariants",
                flight_suffix,
                **report.failure_detail(),
                **flight_extra,
            )

    def dump_flight(self, reason: str, suffix: str = "", **extra) -> str | None:
        """Write the flight recorder (trace ring + metrics) next to the
        run's other artifacts; None when unobserved or no ``flight_dir``."""
        config = self.config
        if self.obs is None or not config.flight_dir:
            return None
        return self.obs.flight.dump(
            f"{config.flight_dir}/{self.name}-seed{config.seed}{suffix}.json",
            reason=reason,
            extra={"seed": config.seed, **extra},
        )
