"""Wire accounting under chaos: ledger-byte reconciliation, the soak
auditor wiring, and accounting on/off digest neutrality."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.costmodel import sum_counters
from repro.chaos.soak import SoakConfig, run_soak
from repro.client.config import ClientConfig
from repro.core.cluster import Cluster
from repro.net.chaos import FaultPlan, FaultRule
from repro.obs import Observability

#: Fault kinds whose request the wrapper swallowed (the inner transport
#: never delivered them) — these feed ``rpc_dropped_*_total``.
UNDELIVERED = ("drop", "stall_timeout")


def _chaos_workload(seed: int = 2):
    """An observed cluster wired through ChaosTransport, driven with a
    workload lossy enough to populate the fault ledger."""
    obs = Observability.create()
    plan = FaultPlan(
        [FaultRule(drop=0.15), FaultRule(op="read", dup=0.30)],
        seed=seed,
        blackhole=0.3,
    )
    cluster = Cluster(
        k=2, n=4, block_size=64, seed=seed, chaos_plan=plan,
        observability=obs,
    )
    client = cluster.protocol_client(
        "chaos", ClientConfig(rpc_timeout=0.05)
    )
    rng = np.random.default_rng(seed)
    for i in range(25):
        value = rng.integers(0, 256, size=64, dtype=np.uint8)
        try:
            client.write(i % 4, i % 2, value)
        except Exception:
            pass  # lossy on purpose; accounting is what's under test
        try:
            client.read(i % 4, i % 2)
        except Exception:
            pass
    return cluster, obs.registry.snapshot()


class TestLedgerByteReconciliation:
    def test_dropped_and_duplicate_bytes_match_ledger_exactly(self):
        cluster, snapshot = _chaos_workload()
        ledger = cluster.chaos.ledger
        assert ledger, "chaos plan injected nothing; workload too small"

        dropped_events = [e for e in ledger if e.kind in UNDELIVERED]
        dup_events = [e for e in ledger if e.kind == "duplicate"]
        assert dropped_events, "no drops injected"
        assert dup_events, "no duplicates injected"

        assert sum_counters(snapshot, "rpc_dropped_messages_total") == len(
            dropped_events
        )
        assert sum_counters(snapshot, "rpc_dropped_bytes_total") == sum(
            e.bytes for e in dropped_events
        )
        assert sum_counters(snapshot, "rpc_duplicate_messages_total") == len(
            dup_events
        )
        assert sum_counters(snapshot, "rpc_duplicate_bytes_total") == sum(
            e.bytes for e in dup_events
        )

    def test_chaos_faults_counter_mirrors_ledger_one_to_one(self):
        cluster, snapshot = _chaos_workload(seed=3)
        for kind, count in cluster.chaos.ledger_counts().items():
            assert (
                sum_counters(snapshot, "chaos_faults_total", kind=kind)
                == count
            ), f"chaos_faults_total{{kind={kind}}} out of step with ledger"

    def test_dropped_cause_label_splits_by_mechanism(self):
        cluster, snapshot = _chaos_workload()
        by_cause = {
            cause: sum_counters(
                snapshot, "rpc_dropped_messages_total", cause=cause
            )
            for cause in UNDELIVERED
        }
        counts = cluster.chaos.ledger_counts()
        for cause in UNDELIVERED:
            assert by_cause[cause] == counts.get(cause, 0)


def _soak_config(seed: int = 7, **overrides) -> SoakConfig:
    defaults = dict(
        seed=seed,
        ops=60,
        clients=2,
        k=2,
        n=4,
        block_size=64,
        blocks=8,
        rpc_timeout=0.05,
        gray_stall=2.0,
    )
    defaults.update(overrides)
    return SoakConfig(**defaults)


class TestSoakAuditorWiring:
    def test_observed_soak_runs_bounded_audit(self):
        report = run_soak(_soak_config(seed=7))
        assert report.passed
        assert report.cost_conformant is True
        payload = report.cost_report
        assert payload["mode"] == "bounded"
        assert payload["passed"] is True
        # The soak injects faults, so the audit must have explainers to
        # charge any excess against.
        assert payload["ledger_explainers"] > 0
        assert "cost conformance (bounded)" in report.summary()

    def test_unobserved_soak_skips_audit(self):
        report = run_soak(_soak_config(seed=7, observe=False))
        assert report.passed
        assert report.cost_conformant is None
        assert report.cost_report == {}


class TestAccountingDigestNeutrality:
    def test_digests_identical_with_accounting_on_and_off(self):
        """The envelope's op kind and byte sizing must not perturb the
        protocol: same seed, observed and unobserved, same history and
        ledger digests."""
        observed = run_soak(_soak_config(seed=9))
        unobserved = run_soak(_soak_config(seed=9, observe=False))
        assert observed.history_digest == unobserved.history_digest
        assert observed.ledger_digest == unobserved.ledger_digest
