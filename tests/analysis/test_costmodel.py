"""Cost-model conformance: oracle predictions and the auditor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.costmodel import (
    CostAuditor,
    CostModel,
    MeasuredKind,
    measured_kinds,
    op_counts,
    sum_counters,
)
from repro.client.config import ClientConfig, WriteStrategy
from repro.client.gc import GcManager
from repro.client.monitor import Monitor
from repro.client.scrub import Scrubber
from repro.core.cluster import Cluster
from repro.obs import Observability

K, N, BS = 3, 5, 256
P = N - K


def _fault_free_workload(
    strategy: WriteStrategy = WriteStrategy.PARALLEL,
    writes: int = 6,
    with_agents: bool = True,
) -> dict:
    obs = Observability.create()
    cluster = Cluster(k=K, n=N, block_size=BS, seed=3, observability=obs)
    client = cluster.protocol_client("cm", ClientConfig(strategy=strategy))
    stripes = 2
    for i in range(writes):
        value = (np.arange(BS, dtype=np.uint64) * (i + 1)) % 256
        client.write(i % stripes, i % K, value.astype(np.uint8))
    for i in range(writes):
        client.read(i % stripes, i % K)
    if with_agents:
        client._start_recovery(0)
        GcManager(client).run_once()
        Monitor(client).sweep(range(stripes))
        Scrubber(client, repair=False).scrub(range(stripes))
    return obs.registry.snapshot()


class TestCostModel:
    def test_write_predictions_match_fig1_rows(self):
        model = CostModel(n=N, k=K, block_size=BS, strategy="parallel")
        assert model.write_messages(1) == 2 * (P + 1)
        assert model.write_rounds(1) == 2
        assert model.write_bytes_floor(1) == (P + 2) * BS
        serial = CostModel(n=N, k=K, block_size=BS, strategy="serial")
        assert serial.write_messages(1) == 2 * (P + 1)
        assert serial.write_rounds(1) == P + 1
        bcast = CostModel(n=N, k=K, block_size=BS, strategy="broadcast")
        assert bcast.write_messages(1) == P + 3
        assert bcast.write_rounds(1) == 2
        assert bcast.write_bytes_floor(1) == 3 * BS

    def test_hybrid_rounds_unchecked(self):
        model = CostModel(n=N, k=K, block_size=BS, strategy="hybrid")
        assert model.write_rounds(4) is None
        assert model.write_messages(1) == 2 * (P + 1)

    def test_recovery_phase_fanouts(self):
        model = CostModel(n=N, k=K, block_size=BS)
        assert model.recovery_messages("recovery_phase1", 1) == 2 * N
        assert model.recovery_messages("recovery_phase2", 1) == 2 * N
        assert model.recovery_messages("recovery_phase3", 1) == 4 * N
        assert model.recovery_rounds("recovery_phase1", 1) == N
        assert model.recovery_rounds("recovery_phase2", 1) == 1
        assert model.recovery_rounds("recovery_phase3", 1) == 2
        # f unreachable nodes shrink the live fan-out.
        assert model.recovery_messages("recovery_phase1", 1, failures=1) == (
            2 * (N - 1)
        )

    def test_gc_costs_two_messages_per_node_frame(self):
        model = CostModel(n=N, k=K, block_size=BS)
        assert model.gc_messages(3) == 6
        assert model.gc_frames_ceiling(1) == 2 * N

    def test_stripe_write_row(self):
        model = CostModel(n=N, k=K, block_size=BS)
        # A full stripe: k swap frames and p add frames, in two rounds.
        assert model.write_messages(K, frames=K + P) == 2 * N
        assert model.write_rounds(K, calls=1) == 2
        assert model.write_bytes_floor(K, calls=1) == (2 * K + P) * BS
        serial = CostModel(n=N, k=K, block_size=BS, strategy="serial")
        assert serial.write_rounds(K, calls=1) == 1 + P
        hybrid = CostModel(n=N, k=K, block_size=BS, strategy="hybrid")
        assert hybrid.write_rounds(K, calls=1) is None
        # BROADCAST: k swap frames, then one AJX-bcast frame per block.
        bcast = CostModel(n=N, k=K, block_size=BS, strategy="broadcast")
        assert bcast.write_messages(K, frames=2 * K) == K * (P + 3)
        assert bcast.write_rounds(K, calls=1) == 1 + K
        assert bcast.write_bytes_floor(K, calls=1) == 3 * K * BS

    def test_unknown_strategy_and_phase_rejected(self):
        with pytest.raises(ValueError):
            CostModel(n=N, k=K, block_size=BS, strategy="quantum")
        model = CostModel(n=N, k=K, block_size=BS)
        with pytest.raises(ValueError):
            model.recovery_messages("recovery_phase9", 1)


class TestSnapshotExtraction:
    def test_measured_kinds_and_op_counts(self):
        snapshot = _fault_free_workload()
        wire = measured_kinds(snapshot)
        assert wire["write"].messages == 6 * 2 * (P + 1)
        assert wire["write"].rounds == 12
        assert wire["write"].bytes_sent >= 6 * (P + 1) * BS
        assert wire["read"].messages == 12
        counts = op_counts(snapshot)
        assert counts.writes == 6
        assert counts.reads == 6
        assert counts.recoveries_completed == 1
        assert 0 < counts.gc_batches <= 2 * N * counts.gc_rounds
        assert counts.monitor_probes > 0

    def test_sum_counters_label_filter(self):
        snapshot = _fault_free_workload(with_agents=False)
        total = sum_counters(snapshot, "rpc_messages_total", kind="write")
        requests = sum_counters(
            snapshot, "rpc_messages_total", kind="write", dir="request"
        )
        responses = sum_counters(
            snapshot, "rpc_messages_total", kind="write", dir="response"
        )
        assert total == requests + responses
        assert requests == responses  # fault-free: every request answered


class TestExactMode:
    @pytest.mark.parametrize("strategy,name", [
        (WriteStrategy.PARALLEL, "parallel"),
        (WriteStrategy.SERIAL, "serial"),
        (WriteStrategy.BROADCAST, "broadcast"),
    ])
    def test_fault_free_workload_conforms_exactly(self, strategy, name):
        snapshot = _fault_free_workload(strategy)
        model = CostModel(n=N, k=K, block_size=BS, strategy=name)
        report = CostAuditor(model, fault_free=True).audit(snapshot)
        assert report.passed, report.summary()
        assert report.total_excess == 0
        by_kind = {v.kind: v for v in report.verdicts}
        assert by_kind["write"].measured_messages == (
            by_kind["write"].predicted_messages
        )
        for phase in ("recovery_phase1", "recovery_phase2", "recovery_phase3"):
            assert by_kind[phase].ok
            assert by_kind[phase].excess_messages == 0

    @pytest.mark.parametrize("strategy", list(WriteStrategy))
    def test_stripe_writes_audit_exactly(self, strategy):
        """A single write, one full stripe, then two stripes in one call:
        the one write row is exact under every strategy."""
        obs = Observability.create()
        cluster = Cluster(k=K, n=N, block_size=BS, seed=3, observability=obs)
        client = cluster.protocol_client("cm", ClientConfig(strategy=strategy))
        client.write(0, 0, np.full(BS, 1, dtype=np.uint8))
        for extent in ((0,), (1, 2)):
            client.write_stripes({
                stripe: {i: np.full(BS, 2 + i, dtype=np.uint8) for i in range(K)}
                for stripe in extent
            })
        model = CostModel(n=N, k=K, block_size=BS, strategy=strategy.value)
        report = CostAuditor(model, fault_free=True).audit(
            obs.registry.snapshot()
        )
        assert report.passed, report.summary()
        write_row = {v.kind: v for v in report.verdicts}["write"]
        assert "write_stripe" not in {v.kind for v in report.verdicts}
        if strategy is WriteStrategy.BROADCAST:
            # Three swap rounds, one AJX-bcast round per block.
            assert write_row.measured_rounds == 3 + (1 + 3 * K)
        elif strategy is WriteStrategy.PARALLEL:
            assert write_row.measured_rounds == 2 * 3

    def test_stripe_frames_beyond_n_per_round_fail(self):
        """A stripe write that sends a node more than one frame per
        round breaks its ceiling even when every message is paired."""
        obs = Observability.create()
        cluster = Cluster(k=K, n=N, block_size=BS, seed=3, observability=obs)
        client = cluster.protocol_client("cm")
        client.write_stripes({0: {i: np.full(BS, i, np.uint8) for i in range(K)}})
        snapshot = obs.registry.snapshot()
        extra = N + 1  # frames, each a request and a response
        for row in snapshot["counters"]:
            if row["name"] == "client_stripe_frames_total":
                row["value"] += extra
        for row in snapshot["counters"]:
            if row["name"] == "rpc_messages_total" and (
                row["labels"].get("kind") == "write"
            ):
                row["value"] += 2 * extra
                break
        report = CostAuditor(
            CostModel(n=N, k=K, block_size=BS), fault_free=True
        ).audit(snapshot)
        bad = next(v for v in report.verdicts if v.kind == "write")
        assert bad.excess_messages == 0
        assert not bad.ok
        assert "n per round" in bad.note

    def test_single_write_decomposes_as_swap_plus_adds(self):
        """The acceptance shape: 1 swap + (m-1)=p adds, request+response
        each, in exactly two rounds (parallel strategy)."""
        snapshot = _fault_free_workload(writes=1, with_agents=False)
        wire = measured_kinds(snapshot)
        assert wire["write"].messages == 2 * (1 + P)
        assert wire["write"].rounds == 2
        swap = sum_counters(
            snapshot, "rpc_messages_total", kind="write", op="swap",
            dir="request",
        )
        adds = sum_counters(
            snapshot, "rpc_messages_total", kind="write", op="add",
            dir="request",
        )
        assert swap == 1
        assert adds == P

    def test_excess_message_fails_exact_mode(self):
        snapshot = _fault_free_workload(with_agents=False)
        for row in snapshot["counters"]:
            if (
                row["name"] == "rpc_messages_total"
                and row["labels"].get("kind") == "write"
                and row["labels"].get("dir") == "request"
                and row["labels"].get("op") == "add"
            ):
                row["value"] += 1  # one phantom add
                break
        model = CostModel(n=N, k=K, block_size=BS)
        report = CostAuditor(model, fault_free=True).audit(snapshot)
        assert not report.passed
        bad = next(v for v in report.verdicts if v.kind == "write")
        assert bad.excess_messages == 1
        assert "messages off" in bad.note

    def test_missing_rounds_fail_exact_mode(self):
        snapshot = _fault_free_workload(with_agents=False)
        for row in snapshot["counters"]:
            if row["name"] == "rpc_rounds_total" and (
                row["labels"].get("kind") == "read"
            ):
                row["value"] -= 1
        report = CostAuditor(
            CostModel(n=N, k=K, block_size=BS), fault_free=True
        ).audit(snapshot)
        assert not report.passed

    @pytest.mark.parametrize("resent", [0, 2 * N])
    def test_degraded_read_takes_one_round(self, resent):
        """One degraded read is one round of 2n messages: a snapshot
        with two rounds for it fails the exact audit, also when the
        second round's messages are there too."""
        obs = Observability.create()
        cluster = Cluster(k=K, n=N, block_size=BS, seed=3, observability=obs)
        client = cluster.protocol_client("cm")
        client.write(0, 0, np.full(BS, 1, dtype=np.uint8))
        client.read_degraded(0, 0)
        snapshot = obs.registry.snapshot()
        model = CostModel(n=N, k=K, block_size=BS)
        row = next(
            v for v in CostAuditor(model, fault_free=True).audit(
                snapshot
            ).verdicts if v.kind == "read_degraded"
        )
        assert row.ok
        assert (row.measured_messages, row.measured_rounds) == (2 * N, 1)
        for row in snapshot["counters"]:
            labels = row["labels"]
            if labels.get("kind") != "read_degraded":
                continue
            if row["name"] == "rpc_rounds_total":
                row["value"] += 1
            elif row["name"] == "rpc_messages_total" and resent:
                row["value"] += resent // 2  # each direction's half
        report = CostAuditor(model, fault_free=True).audit(snapshot)
        assert not report.passed
        bad = next(v for v in report.verdicts if v.kind == "read_degraded")
        assert bad.measured_messages == 2 * N + resent
        assert not bad.ok

    def test_bytes_outside_envelope_fail(self):
        snapshot = _fault_free_workload(with_agents=False)
        for row in snapshot["counters"]:
            if row["name"] == "rpc_bytes_sent_total" and (
                row["labels"].get("kind") == "write"
            ):
                row["value"] = 1  # implausibly small
        report = CostAuditor(
            CostModel(n=N, k=K, block_size=BS), fault_free=True
        ).audit(snapshot)
        bad = next(v for v in report.verdicts if v.kind == "write")
        assert not bad.ok
        assert "below floor" in bad.note


    def test_gc_frames_beyond_two_per_node_per_round_fail(self):
        """Per-stripe GC (a frame per stripe per node) breaks the 2n
        frames-per-round ceiling even when every message is paired."""
        snapshot = _fault_free_workload()
        extra = 2 * N + 1
        for row in snapshot["counters"]:
            if row["name"] == "gc_batches_total":
                row["value"] += extra
            elif row["name"] == "rpc_messages_total" and (
                row["labels"].get("kind") == "gc"
            ):
                row["value"] += extra  # requests and responses alike
        report = CostAuditor(
            CostModel(n=N, k=K, block_size=BS), fault_free=True
        ).audit(snapshot)
        bad = next(v for v in report.verdicts if v.kind == "gc")
        assert bad.excess_messages == 0
        assert not bad.ok
        assert "2n per round" in bad.note


class TestBoundedMode:
    def test_excess_within_ledger_allowance_passes(self):
        snapshot = _fault_free_workload(with_agents=False)
        for row in snapshot["counters"]:
            if (
                row["name"] == "rpc_messages_total"
                and row["labels"].get("kind") == "write"
                and row["labels"].get("dir") == "request"
                and row["labels"].get("op") == "add"
            ):
                row["value"] += 2  # retried adds
                break
        report = CostAuditor(
            CostModel(n=N, k=K, block_size=BS), fault_free=False
        ).audit(snapshot, ledger_counts={"drop": 2})
        assert report.passed, report.summary()
        assert report.ledger_explainers == 2

    def test_excess_with_empty_ledger_fails_bounded_mode(self):
        """The headline rule: every excess message needs a fault-ledger
        entry (or a retry cause) to explain it."""
        snapshot = _fault_free_workload(with_agents=False)
        for row in snapshot["counters"]:
            if (
                row["name"] == "rpc_messages_total"
                and row["labels"].get("kind") == "write"
                and row["labels"].get("dir") == "request"
            ):
                row["value"] += 3
                break
        report = CostAuditor(
            CostModel(n=N, k=K, block_size=BS), fault_free=False
        ).audit(snapshot, ledger_counts={})
        assert not report.passed
        # With zero explainers the allowance itself is zero, so the
        # per-kind check flags the row...
        bad = next(v for v in report.verdicts if v.kind == "write")
        assert not bad.ok and "beyond allowance 0" in bad.note
        # ...and the report carries the headline rule.
        assert any("VIOLATION" in n for n in report.notes)

    def test_allowance_scales_with_explainers(self):
        auditor = CostAuditor(
            CostModel(n=N, k=K, block_size=BS), fault_free=False,
            allowance_per_fault=10,
        )
        snapshot = _fault_free_workload(with_agents=False)
        for row in snapshot["counters"]:
            if (
                row["name"] == "rpc_messages_total"
                and row["labels"].get("kind") == "write"
                and row["labels"].get("dir") == "request"
            ):
                row["value"] += 25  # more than 2 faults can explain
                break
        report = auditor.audit(snapshot, ledger_counts={"drop": 2})
        assert not report.passed
        assert any("beyond allowance" in v.note for v in report.verdicts)

    def test_chaos_accounting_fails_fault_free_audit(self):
        snapshot = _fault_free_workload(with_agents=False)
        snapshot["counters"].append({
            "name": "rpc_dropped_messages_total",
            "labels": {"kind": "write", "op": "add", "cause": "drop"},
            "value": 1,
        })
        report = CostAuditor(
            CostModel(n=N, k=K, block_size=BS), fault_free=True
        ).audit(snapshot)
        bad = next(v for v in report.verdicts if v.kind == "write")
        assert not bad.ok
        assert "chaos accounting" in bad.note


class TestReport:
    def test_json_and_summary_round_out(self):
        snapshot = _fault_free_workload()
        report = CostAuditor(
            CostModel(n=N, k=K, block_size=BS), fault_free=True
        ).audit(snapshot)
        payload = report.to_json()
        assert payload["passed"] is True
        assert payload["mode"] == "fault_free"
        kinds = [v["kind"] for v in payload["verdicts"]]
        assert "write" in kinds and "recovery_phase2" in kinds
        text = report.summary()
        assert "PASS" in text and "write" in text

    def test_measured_kind_defaults(self):
        m = MeasuredKind(kind="x")
        assert m.messages == 0 and m.bytes_total == 0
