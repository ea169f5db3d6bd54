"""Client-side protocol configuration.

The update strategy selects among the paper's AJX variants:

* ``SERIAL``   — Fig. 5 as printed: adds one redundant node at a time;
  best resiliency (Theorem 1), write latency 1 + p round trips.
* ``PARALLEL`` — the pfor variant: one batch of concurrent adds; write
  latency 2 round trips, reduced resiliency (Theorem 2).
* ``HYBRID``   — parallel-serial groups (Theorem 3): groups of at most
  ``hybrid_group_size`` updated serially, parallel within a group.
* ``BROADCAST``— §3.11: one multicast carrying ``v - w``; the storage
  nodes apply their own alpha coefficients.  Same resiliency shape as
  PARALLEL, but client write bandwidth drops from (p+2)B to 3B.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class WriteStrategy(enum.Enum):
    SERIAL = "serial"
    PARALLEL = "parallel"
    HYBRID = "hybrid"
    BROADCAST = "broadcast"


@dataclass(frozen=True)
class ClientConfig:
    """Tunables for one protocol client."""

    strategy: WriteStrategy = WriteStrategy.PARALLEL
    #: Theorem 3 group size r for HYBRID (ignored otherwise).
    hybrid_group_size: int = 2

    #: Failure budget the deployment was sized for; recovery's ``slack``
    #: uses t_d (Fig. 6 line 12) so a re-recovery after further storage
    #: crashes still finds k consistent blocks.
    t_p: int = 1
    t_d: int = 1

    #: Outer WRITE attempts (each is a fresh swap + adds round).
    max_write_attempts: int = 16
    #: Retries of a failed swap / read before giving up.
    max_op_attempts: int = 400
    #: ORDER responses tolerated before concluding the previous writer
    #: crashed and starting recovery ("tired of looping", Fig. 5).
    order_retry_limit: int = 8
    #: Base sleep between retries, seconds (exponential backoff, capped).
    backoff: float = 0.001
    backoff_cap: float = 0.05
    #: Iterations of recovery phase 2's wait-for-adds loop before
    #: declaring the stripe unrecoverable.
    recovery_wait_limit: int = 200

    #: Per-RPC deadline, seconds (None = wait forever, the paper's
    #: fail-stop model where only crashes fail calls).  With a deadline,
    #: a slow or silent node surfaces as RpcTimeoutError instead of a
    #: hang, and is treated as *suspected* failed.
    rpc_timeout: float | None = None
    #: Consecutive RPC timeouts from one node before the client stops
    #: suspecting and starts *believing*: the circuit breaker opens,
    #: the node is remapped and recovery runs, exactly as for a
    #: detected fail-stop crash (the breaker's trip threshold).
    suspicion_threshold: int = 3

    #: Hedged degraded reads: when the data node has not answered
    #: within the hedging delay, race a k-of-n reconstruct against it
    #: and take the first winner (tail-latency defense for gray nodes).
    hedged_reads: bool = False
    #: Explicit hedging delay in seconds; None derives it from the
    #: node's health EWMA (:meth:`HealthRegistry.hedge_delay`).
    hedge_delay: float | None = None

    #: Test-only seeded regression: when True, ``_setlock_robust``
    #: silently drops the release RPC — a faithful reintroduction of
    #: the pre-PR-2 bug where a dropped setlock release wedged stripes
    #: forever.  Exists so the crash-point explorer's own detection
    #: path (catch → delta-debug → minimal schedule) can be exercised
    #: against a known-real bug.  Never set outside tests/explorer.
    test_drop_setlock_release: bool = False

    #: Extension beyond the paper: when a read hits an out-of-service
    #: block, first try to *decode* the value from the surviving blocks
    #: (read-only, no locks, no repair) before falling back to full
    #: recovery.  Serves reads with one extra round of get_states during
    #: an outage; restoring redundancy remains the job of on-access
    #: recovery for writes, the monitor, or the rebuilder.
    degraded_reads: bool = False

    #: End-to-end integrity: after every successful read, cross-check
    #: the received block against the serving node's recorded content
    #: fingerprint (one extra tiny RPC, no block payload).  A mismatch
    #: is never served: wire damage is retried, at-rest damage falls
    #: back to a degraded decode excluding the liar, triggers repair,
    #: and quarantines the node.  Off by default — the fault-free wire
    #: cost model measures exactly the paper's Fig. 1 read column.
    verified_reads: bool = False
