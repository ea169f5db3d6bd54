"""Closed-form analysis: Section 4 resiliency theorems, Fig. 1 wire-cost
conformance auditing, plus executable invariant packs
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
    "ResiliencyEntry",
    "d_parallel",
    "d_serial",
    "hybrid_ok",
    "max_client_failures",
    "redundancy_parallel",
    "redundancy_serial",
    "resiliency_profile",
    "write_latency_hybrid",
    "write_latency_parallel",
    "write_latency_serial",
]
