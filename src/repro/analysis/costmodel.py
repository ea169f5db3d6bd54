"""Paper-cost-model conformance: predicted vs measured wire traffic.

The paper's Fig. 1 argues in *messages, round trips, and bytes*; the
transports now measure exactly those, attributed per logical operation
(``rpc_messages_total{kind=...}`` and friends).  This module closes the
loop:

* :class:`CostModel` extends the analytic ``cost_table`` rows of
  :mod:`repro.baselines.costs` from per-op figures to whole-run
  expectations — a write call is one swap round and the strategy's
  add rounds of node frames (one block's call is 1 swap + p adds),
  recovery as its three per-phase fan-outs (2n / 2n / 4n messages on
  a fault-free stripe), GC as two-phase batches, and the sweep agents
  (monitor, scrub, rebuild, rebalance, audit) as strictly
  request/response-paired serial traffic.
* :class:`CostAuditor` reconciles a metrics snapshot against those
  expectations.  In **fault-free** mode message and round counts must
  match *exactly* (the paper's failure-free columns).  In **bounded**
  mode every excess message must be explained by a fault-ledger entry
  (drops, duplicates, stalls) or a client-visible retry cause (busy
  sheds, timeouts, yielded recoveries); excess with an empty ledger is
  a conformance violation.

The auditor works off plain snapshot dicts (``registry.snapshot()``),
so it applies equally to a live run, a saved ``--metrics-out`` file, or
the metrics embedded in a flight-recorder dump.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.costs import CostRow, ajx_bcast, ajx_par, ajx_ser

#: Recovery phases, in protocol order (Fig. 6).
RECOVERY_KINDS = ("recovery_phase1", "recovery_phase2", "recovery_phase3")

#: Kinds whose RPCs are issued serially, one round each — for these
#: ``rpc_messages_total == 2 * rpc_rounds_total`` exactly when no
#: request or response was lost.
PAIRED_KINDS = ("monitor", "scrub", "rebuild", "rebalance", "audit")

#: Per-message header slack for byte ceilings: addrs, tids, lock modes,
#: snapshot bookkeeping — everything that rides along with the block
#: payloads the analytic model charges for.
DEFAULT_BYTE_SLACK = 512

#: Messages one explainable fault may add before the auditor calls it
#: unexplained: a retry cascade can re-run a phase fan-out (O(n)) plus
#: the retried call itself.  Scaled by n at audit time.
ALLOWANCE_PER_FAULT_FACTOR = 8


def sum_counters(snapshot: dict, name: str, **labels: str) -> float:
    """Sum every sample of counter ``name`` whose labels match all of
    ``labels`` (subset match, so ``{client=...}`` fan-outs aggregate)."""
    total = 0.0
    for row in snapshot.get("counters", []):
        if row.get("name") != name:
            continue
        row_labels = row.get("labels", {})
        if all(row_labels.get(k) == v for k, v in labels.items()):
            total += row.get("value", 0)
    return total


def counter_label_values(snapshot: dict, name: str, label: str) -> set[str]:
    """Distinct values of ``label`` across samples of ``name``."""
    values: set[str] = set()
    for row in snapshot.get("counters", []):
        if row.get("name") != name:
            continue
        value = row.get("labels", {}).get(label)
        if value is not None:
            values.add(value)
    return values


def gauge_value(snapshot: dict, name: str, **labels: str) -> float:
    """Sum every sample of gauge ``name`` whose labels match all of
    ``labels`` (subset match, mirroring :func:`sum_counters`)."""
    total = 0.0
    for row in snapshot.get("gauges", []):
        if row.get("name") != name:
            continue
        row_labels = row.get("labels", {})
        if all(row_labels.get(k) == v for k, v in labels.items()):
            total += row.get("value", 0)
    return total


@dataclass(frozen=True)
class MeasuredKind:
    """Wire truth for one op kind, extracted from a snapshot."""

    kind: str
    messages: int = 0
    rounds: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    dropped_messages: int = 0
    dropped_bytes: int = 0
    duplicate_messages: int = 0
    duplicate_bytes: int = 0

    @property
    def bytes_total(self) -> int:
        return self.bytes_sent + self.bytes_received


def measured_kinds(snapshot: dict) -> dict[str, MeasuredKind]:
    """Per-kind wire measurements from a ``registry.snapshot()`` dict."""
    kinds: set[str] = set()
    for name in (
        "rpc_messages_total",
        "rpc_rounds_total",
        "rpc_bytes_sent_total",
        "rpc_bytes_received_total",
        "rpc_dropped_messages_total",
        "rpc_duplicate_messages_total",
    ):
        kinds |= counter_label_values(snapshot, name, "kind")
    out: dict[str, MeasuredKind] = {}
    for kind in sorted(kinds):
        out[kind] = MeasuredKind(
            kind=kind,
            messages=int(sum_counters(snapshot, "rpc_messages_total", kind=kind)),
            rounds=int(sum_counters(snapshot, "rpc_rounds_total", kind=kind)),
            bytes_sent=int(
                sum_counters(snapshot, "rpc_bytes_sent_total", kind=kind)
            ),
            bytes_received=int(
                sum_counters(snapshot, "rpc_bytes_received_total", kind=kind)
            ),
            dropped_messages=int(
                sum_counters(snapshot, "rpc_dropped_messages_total", kind=kind)
            ),
            dropped_bytes=int(
                sum_counters(snapshot, "rpc_dropped_bytes_total", kind=kind)
            ),
            duplicate_messages=int(
                sum_counters(snapshot, "rpc_duplicate_messages_total", kind=kind)
            ),
            duplicate_bytes=int(
                sum_counters(snapshot, "rpc_duplicate_bytes_total", kind=kind)
            ),
        )
    return out


@dataclass(frozen=True)
class OpCounts:
    """Logical-operation counts the predictions key on, extracted from
    the client/agent counters the protocol layer already mirrors."""

    writes: int = 0
    write_attempts: int = 0
    stripe_writes: int = 0  # write calls (one block or many)
    stripe_frames: int = 0  # swap + add node frames they had answered
    reads: int = 0
    degraded_invocations: int = 0
    recoveries_completed: int = 0
    recoveries_yielded: int = 0
    gc_batches: int = 0  # GC node frames answered
    gc_rounds: int = 0
    monitor_probes: int = 0
    hedged_reads: int = 0
    busy_rejections: int = 0
    rpc_timeouts: int = 0
    order_retries: int = 0
    stale_refetches: int = 0
    directory_leg_failures: int = 0
    directory_repairs: int = 0


def op_counts(snapshot: dict) -> OpCounts:
    def client(name: str) -> int:
        return int(sum_counters(snapshot, f"client_{name}_total"))

    return OpCounts(
        writes=client("writes"),
        write_attempts=client("write_attempts"),
        stripe_writes=client("stripe_writes"),
        stripe_frames=client("stripe_frames"),
        reads=client("reads"),
        # Counted on entry, so hedges that lost the race and fallbacks
        # that found no consistent set count too (client_degraded_reads
        # deliberately excludes both).
        degraded_invocations=client("degraded_invocations"),
        recoveries_completed=client("recoveries_completed"),
        recoveries_yielded=client("recoveries_yielded"),
        gc_batches=int(sum_counters(snapshot, "gc_batches_total")),
        gc_rounds=int(sum_counters(snapshot, "gc_rounds_total")),
        monitor_probes=int(sum_counters(snapshot, "monitor_probes_total")),
        hedged_reads=client("hedged_reads"),
        busy_rejections=client("busy_rejections"),
        rpc_timeouts=client("rpc_timeouts"),
        order_retries=client("order_retries"),
        stale_refetches=client("stale_refetches"),
        directory_leg_failures=int(
            sum_counters(snapshot, "directory_leg_failures_total")
        ),
        directory_repairs=int(sum_counters(snapshot, "directory_repairs_total")),
    )


class CostModel:
    """Failure-free wire-cost oracle for one cluster geometry.

    Extends the Fig. 1 per-op rows to every op kind the wire
    accounting attributes, parameterized by (n, k, block size, write
    strategy).  ``failures`` widens recovery-phase predictions when a
    run is known to have had f unreachable nodes (a phase skips the
    request/response pairs a dead node can no longer answer).
    """

    def __init__(
        self,
        n: int,
        k: int,
        block_size: int,
        strategy: str = "parallel",
        byte_slack: int = DEFAULT_BYTE_SLACK,
    ):
        if strategy not in ("parallel", "serial", "hybrid", "broadcast"):
            raise ValueError(f"unknown write strategy {strategy!r}")
        self.n = n
        self.k = k
        self.p = n - k
        self.block_size = block_size
        self.strategy = strategy
        self.byte_slack = byte_slack

    @property
    def write_row(self) -> CostRow:
        if self.strategy == "broadcast":
            return ajx_bcast(self.n, self.k)
        if self.strategy == "serial":
            return ajx_ser(self.n, self.k)
        return ajx_par(self.n, self.k)  # hybrid shares par's message count

    def write_messages(self, writes: int, frames: int | None = None) -> int:
        """Messages of ``writes`` blocks whose calls had ``frames`` swap
        and add frames answered: a request and a response per frame,
        and p responses to each block's AJX-bcast frame.  Without
        ``frames`` every block is its own call, Fig. 1's row."""
        if frames is None:
            return writes * self.write_row.write_messages
        bcast = self.p - 1 if self.strategy == "broadcast" else 0
        return frames * 2 + bcast * writes

    def write_rounds(self, writes: int, calls: int | None = None) -> int | None:
        """Expected ``rpc_rounds_total{kind=write}`` of ``writes`` blocks
        in ``calls`` calls (default: one each): a swap round per call,
        then its adds in the strategy's order — one round under
        PARALLEL, p under SERIAL, one per block under BROADCAST (None
        for hybrid, whose group size is config)."""
        calls = writes if calls is None else calls
        if self.strategy == "hybrid":
            return None
        if self.strategy == "broadcast":
            return calls + writes
        return calls * self.write_row.write_latency_rt

    def write_bytes_floor(self, writes: int, calls: int | None = None) -> int:
        """Fig. 1's write bandwidth per call, plus every further block's
        swap out and back (and its own raw delta under BROADCAST)."""
        calls = writes if calls is None else calls
        further = 3 if self.strategy == "broadcast" else 2
        return int(
            calls * self.write_row.write_bandwidth_bytes(self.block_size)
            + further * (writes - calls) * self.block_size
        )

    def read_messages(self, reads: int) -> int:
        return reads * self.write_row.read_messages  # 2 for every AJX row

    def read_bytes_floor(self, reads: int) -> int:
        return reads * self.block_size

    def degraded_messages(self, invocations: int) -> int:
        """One degraded read snapshots all n nodes (request + response)
        in one round."""
        return invocations * 2 * self.n

    def recovery_messages(self, phase: str, recoveries: int, failures: int = 0) -> int:
        """Fault-free per-phase fan-out on an all-reachable stripe:
        phase 1 = n trylocks, phase 2 = n get_states, phase 3 =
        n reconstructs + n finalizes, request + response each.  With f
        unreachable nodes, their pairs never complete."""
        live = self.n - failures
        if phase == "recovery_phase1":
            return recoveries * 2 * live
        if phase == "recovery_phase2":
            return recoveries * 2 * live
        if phase == "recovery_phase3":
            return recoveries * 4 * live
        raise ValueError(f"unknown recovery phase {phase!r}")

    def recovery_rounds(self, phase: str, recoveries: int) -> int:
        if phase == "recovery_phase1":
            return recoveries * self.n  # serial trylock chain
        if phase == "recovery_phase2":
            return recoveries  # one frame round
        if phase == "recovery_phase3":
            return recoveries * 2  # reconstruct batch + finalize batch
        raise ValueError(f"unknown recovery phase {phase!r}")

    def gc_messages(self, frames: int) -> int:
        return frames * 2  # one request + response per answered node frame

    def gc_frames_ceiling(self, rounds: int) -> int:
        """A GC round is two fan-outs, all ``gc_old`` frames and then all
        ``gc_recent`` frames, each at most one frame per node."""
        return rounds * 2 * self.n

    def paired_messages(self, rounds: int) -> int:
        return rounds * 2

    def directory_messages(self, rounds: int, replicas: int) -> int:
        """One quorum round fans one request/response pair to every
        directory replica, and the quorum layer counts exactly one
        round per fan-out — so fault-free traffic is ``2 * R`` messages
        per round.  Failed legs (unreachable replicas record nothing)
        and unicast read-repairs perturb this; both are surfaced as
        explainer counters and covered by the bounded allowance."""
        return rounds * 2 * replicas


@dataclass(frozen=True)
class KindVerdict:
    """Measured-vs-predicted reconciliation for one op kind."""

    kind: str
    measured_messages: int
    predicted_messages: int | None  # None = informational, not checked
    measured_rounds: int
    predicted_rounds: int | None
    bytes_total: int
    bytes_floor: int | None
    bytes_ceiling: int | None
    allowance: int
    ok: bool
    note: str = ""

    @property
    def excess_messages(self) -> int:
        if self.predicted_messages is None:
            return 0
        return self.measured_messages - self.predicted_messages

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "measured_messages": self.measured_messages,
            "predicted_messages": self.predicted_messages,
            "excess_messages": self.excess_messages,
            "measured_rounds": self.measured_rounds,
            "predicted_rounds": self.predicted_rounds,
            "bytes_total": self.bytes_total,
            "bytes_floor": self.bytes_floor,
            "bytes_ceiling": self.bytes_ceiling,
            "allowance": self.allowance,
            "ok": self.ok,
            "note": self.note,
        }


@dataclass
class CostAuditReport:
    """One full conformance audit."""

    fault_free: bool
    verdicts: list[KindVerdict] = field(default_factory=list)
    ledger_explainers: int = 0
    retry_explainers: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(v.ok for v in self.verdicts)

    @property
    def total_excess(self) -> int:
        return sum(max(0, v.excess_messages) for v in self.verdicts)

    def to_json(self) -> dict:
        return {
            "format": 1,
            "mode": "fault_free" if self.fault_free else "bounded",
            "passed": self.passed,
            "total_excess_messages": self.total_excess,
            "ledger_explainers": self.ledger_explainers,
            "retry_explainers": self.retry_explainers,
            "verdicts": [v.to_json() for v in self.verdicts],
            "notes": self.notes,
        }

    def summary(self) -> str:
        mode = "fault-free (exact)" if self.fault_free else "bounded (ledger)"
        lines = [
            f"cost conformance [{mode}]: "
            f"{'PASS' if self.passed else 'FAIL'}",
            f"{'kind':<18} {'msgs':>7} {'pred':>7} {'exc':>5} "
            f"{'rounds':>7} {'predRT':>7} {'bytes':>10}  verdict",
        ]
        for v in self.verdicts:
            pred = "-" if v.predicted_messages is None else str(v.predicted_messages)
            pred_rt = "-" if v.predicted_rounds is None else str(v.predicted_rounds)
            status = "ok" if v.ok else "VIOLATION"
            note = f" ({v.note})" if v.note else ""
            lines.append(
                f"{v.kind:<18} {v.measured_messages:>7} {pred:>7} "
                f"{v.excess_messages:>5} {v.measured_rounds:>7} {pred_rt:>7} "
                f"{v.bytes_total:>10}  {status}{note}"
            )
        if not self.fault_free:
            lines.append(
                f"excess {self.total_excess} msgs vs explainers: "
                f"{self.ledger_explainers} ledger + "
                f"{self.retry_explainers} retry-cause"
            )
        lines.extend(self.notes)
        return "\n".join(lines)


class CostAuditor:
    """Reconciles a metrics snapshot against a :class:`CostModel`.

    ``fault_free=True`` demands the paper's failure-free columns
    exactly; otherwise every kind's message excess must fit inside an
    allowance derived from the fault ledger and retry-cause counters —
    an excess with no explainer is a violation either way.
    """

    def __init__(
        self,
        model: CostModel,
        fault_free: bool = True,
        allowance_per_fault: int | None = None,
    ):
        self.model = model
        self.fault_free = fault_free
        self.allowance_per_fault = (
            allowance_per_fault
            if allowance_per_fault is not None
            else ALLOWANCE_PER_FAULT_FACTOR * model.n + 16
        )

    # -- explainers ---------------------------------------------------------

    def _ledger_explainers(
        self, snapshot: dict, ledger_counts: dict[str, int] | None
    ) -> int:
        if ledger_counts is not None:
            return sum(ledger_counts.values())
        return int(sum_counters(snapshot, "chaos_faults_total"))

    def _retry_explainers(self, counts: OpCounts) -> int:
        """Client-visible causes of extra traffic that are not ledger
        entries themselves (each is *caused* by one, but also each is
        an independent upper-bound unit of retry traffic)."""
        return (
            max(0, counts.write_attempts - counts.writes)
            + counts.recoveries_yielded
            + counts.busy_rejections
            + counts.rpc_timeouts
            + counts.order_retries
            + counts.stale_refetches
            + counts.hedged_reads
            # Each failed directory leg is <= 2 messages *missing* from a
            # quorum fan-out; each read-repair is 2 extra unicast
            # messages.  Both are per-event units of wire perturbation.
            + counts.directory_leg_failures
            + counts.directory_repairs
        )

    # -- audit --------------------------------------------------------------

    def audit(
        self, snapshot: dict, ledger_counts: dict[str, int] | None = None
    ) -> CostAuditReport:
        model = self.model
        wire = measured_kinds(snapshot)
        counts = op_counts(snapshot)
        ledger = self._ledger_explainers(snapshot, ledger_counts)
        retries = self._retry_explainers(counts)
        report = CostAuditReport(
            fault_free=self.fault_free,
            ledger_explainers=ledger,
            retry_explainers=retries,
        )
        explainers = ledger + retries
        allowance = 0 if self.fault_free else explainers * self.allowance_per_fault

        def measured(kind: str) -> MeasuredKind:
            return wire.get(kind, MeasuredKind(kind=kind))

        def check(
            kind: str,
            predicted_messages: int | None,
            predicted_rounds: int | None = None,
            bytes_floor: int | None = None,
            bytes_ceiling: int | None = None,
            note: str = "",
            violation: str = "",
        ) -> None:
            m = measured(kind)
            ok = not violation
            reasons: list[str] = [violation] if violation else []
            if predicted_messages is not None:
                excess = m.messages - predicted_messages
                if self.fault_free:
                    if excess != 0:
                        ok = False
                        reasons.append(f"messages off by {excess:+d}")
                elif abs(excess) > allowance:
                    ok = False
                    reasons.append(
                        f"excess {excess:+d} beyond allowance {allowance}"
                    )
                elif excess > 0 and explainers == 0:
                    ok = False
                    reasons.append("excess messages with an empty fault ledger")
            if predicted_rounds is not None and self.fault_free:
                if m.rounds != predicted_rounds:
                    ok = False
                    reasons.append(
                        f"rounds {m.rounds} != predicted {predicted_rounds}"
                    )
            if bytes_floor is not None and self.fault_free:
                if m.bytes_total < bytes_floor:
                    ok = False
                    reasons.append(
                        f"bytes {m.bytes_total} below floor {bytes_floor}"
                    )
            if bytes_ceiling is not None and self.fault_free:
                if m.bytes_total > bytes_ceiling:
                    ok = False
                    reasons.append(
                        f"bytes {m.bytes_total} above ceiling {bytes_ceiling}"
                    )
            if self.fault_free and (m.dropped_messages or m.duplicate_messages):
                ok = False
                reasons.append("chaos accounting present in a fault-free audit")
            report.verdicts.append(
                KindVerdict(
                    kind=kind,
                    measured_messages=m.messages,
                    predicted_messages=predicted_messages,
                    measured_rounds=m.rounds,
                    predicted_rounds=predicted_rounds,
                    bytes_total=m.bytes_total,
                    bytes_floor=bytes_floor,
                    bytes_ceiling=bytes_ceiling,
                    allowance=allowance,
                    ok=ok,
                    note="; ".join(reasons) if reasons else note,
                )
            )

        slack = model.byte_slack
        calls, frames = counts.stripe_writes, counts.stripe_frames
        w_msgs = model.write_messages(counts.writes, frames)
        w_floor = model.write_bytes_floor(counts.writes, calls)
        # Unicast calls add p summed deltas per further stripe, at most
        # one stripe per further block.
        w_spread = 0 if model.strategy == "broadcast" else (
            model.p * (counts.writes - calls) * model.block_size
        )
        # Each round sends a node at most one frame.
        frames_ceiling = model.n * measured("write").rounds
        check(
            "write",
            w_msgs,
            model.write_rounds(counts.writes, calls),
            bytes_floor=w_floor,
            bytes_ceiling=w_floor + w_spread + slack * w_msgs,
            note=f"{counts.writes} blocks in {calls} calls, {frames} frames "
                 f"x {model.write_row.scheme}",
            violation=(
                f"{frames} frames above {frames_ceiling} (n per round)"
                if frames > frames_ceiling else ""
            ),
        )
        r_msgs = model.read_messages(counts.reads)
        check(
            "read",
            r_msgs,
            counts.reads,
            bytes_floor=model.read_bytes_floor(counts.reads),
            bytes_ceiling=model.read_bytes_floor(counts.reads) + slack * r_msgs,
            note=f"{counts.reads} reads",
        )
        check(
            "read_degraded",
            model.degraded_messages(counts.degraded_invocations),
            counts.degraded_invocations,
            note=f"{counts.degraded_invocations} degraded fan-outs",
        )
        rec = counts.recoveries_completed
        for phase in RECOVERY_KINDS:
            floor = None
            ceiling = None
            if phase == "recovery_phase2":
                floor = rec * model.k * model.block_size
                ceiling = rec * model.n * model.block_size + slack * measured(
                    phase
                ).messages
            elif phase == "recovery_phase3":
                floor = rec * model.n * model.block_size
                ceiling = 2 * rec * model.n * model.block_size + slack * measured(
                    phase
                ).messages
            check(
                phase,
                model.recovery_messages(phase, rec),
                model.recovery_rounds(phase, rec),
                bytes_floor=floor,
                bytes_ceiling=ceiling,
                note=f"{rec} recoveries",
            )
        check(
            "recovery_abort",
            0 if self.fault_free else None,
            note="exception-path unlock",
        )
        frames_ceiling = model.gc_frames_ceiling(counts.gc_rounds)
        check(
            "gc",
            model.gc_messages(counts.gc_batches),
            note=f"{counts.gc_batches} frames in {counts.gc_rounds} rounds",
            violation=(
                f"{counts.gc_batches} frames above {frames_ceiling} "
                f"(2n per round)"
                if counts.gc_batches > frames_ceiling else ""
            ),
        )
        for kind in PAIRED_KINDS:
            m = measured(kind)
            check(
                kind,
                model.paired_messages(m.rounds),
                note="request/response paired",
            )
        replicas = int(gauge_value(snapshot, "directory_replica_count"))
        if replicas:
            m = measured("directory")
            check(
                "directory",
                model.directory_messages(m.rounds, replicas),
                note=f"quorum fan-outs x {replicas} replicas",
            )
        # Anything attributed to a kind the model does not predict
        # (including "other") is reported informationally.
        known = {v.kind for v in report.verdicts}
        for kind in sorted(set(wire) - known):
            check(kind, None, note="unmodeled kind")
        if not self.fault_free and report.total_excess > 0 and explainers == 0:
            # Per-kind checks already failed the offending rows; the
            # note states the headline rule for the soak summary.
            report.notes.append(
                "VIOLATION: excess wire traffic with no fault-ledger entry "
                "or retry cause to explain it"
            )
        return report
