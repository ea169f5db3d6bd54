"""Closed-form analysis: Section 4 resiliency theorems, §6.5 overhead,
Fig. 1 wire-cost conformance auditing, plus executable invariant packs
(quiescence, regular registers)."""

from repro.analysis.costmodel import (
    CostAuditReport,
    CostAuditor,
    CostModel,
    KindVerdict,
    MeasuredKind,
    measured_kinds,
    op_counts,
    sum_counters,
)
from repro.analysis.invariants import (
    STRIPE_INVARIANTS,
    InvariantViolation,
    check_history,
    check_quiescence,
    check_stripe,
    stripe_states,
)
from repro.analysis.overhead import (
    OverheadModel,
    erasure_storage_blowup,
    replication_equivalent,
)
from repro.analysis.stats import (
    LatencySummary,
    mean,
    percentile,
    summarize,
)
from repro.analysis.resiliency import (
    ResiliencyEntry,
    d_parallel,
    d_serial,
    hybrid_ok,
    max_client_failures,
    redundancy_parallel,
    redundancy_serial,
    resiliency_profile,
    write_latency_hybrid,
    write_latency_parallel,
    write_latency_serial,
)

__all__ = [
    "CostAuditReport",
    "CostAuditor",
    "CostModel",
    "KindVerdict",
    "MeasuredKind",
    "measured_kinds",
    "op_counts",
    "sum_counters",
    "InvariantViolation",
    "STRIPE_INVARIANTS",
    "check_history",
    "check_quiescence",
    "check_stripe",
    "stripe_states",
    "LatencySummary",
    "OverheadModel",
    "ResiliencyEntry",
    "mean",
    "percentile",
    "summarize",
    "d_parallel",
    "d_serial",
    "erasure_storage_blowup",
    "hybrid_ok",
    "max_client_failures",
    "redundancy_parallel",
    "redundancy_serial",
    "replication_equivalent",
    "resiliency_profile",
    "write_latency_hybrid",
    "write_latency_parallel",
    "write_latency_serial",
]
