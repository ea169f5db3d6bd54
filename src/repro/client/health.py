"""Per-node health scoring and circuit breakers.

The paper's failure model is binary — a node is up, or its halt is
detected (§3.5).  The chaos layer injects the gray middle ground:
nodes that are slow, lossy, or intermittently silent.  This module
gives clients a shared, continuous view of that spectrum:

* every RPC outcome (from the protocol client, monitor, scrubber, GC,
  rebuilder and rebalancer — anything routed through
  ``ProtocolClient.rpc`` — and each receiver's leg of an AJX-bcast
  frame) feeds a per-node **EWMA latency** and **health score**;
* a per-node **circuit breaker** (closed → open → half-open) replaces
  the raw consecutive-timeout suspicion counter as the remap trigger:
  the CLOSED→OPEN transition is exactly the old "suspicion threshold
  reached" event, but the breaker additionally *fails fast* while
  open — calls to a condemned node cost nothing instead of burning a
  full ``rpc_timeout`` each — and probes the node again after a
  half-open interval;
* the latency EWMA also derives the **hedging delay** for hedged
  degraded reads (wait about "p-large" of the node's typical latency
  before racing a reconstruct against it).

Determinism: the breaker deliberately measures its half-open probe
interval in *blocked attempts*, not wall time — the same choice the
chaos/media fault plans make (op counts, not clocks) — so a seeded
workload makes identical breaker decisions on every run and soak
digests stay reproducible.

One :class:`HealthRegistry` can be shared by many clients (the cluster
wires one per deployment); all state is per *node id*, so a remapped
slot's fresh replacement starts with a clean slate.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass

from repro.obs.metrics import NULL_REGISTRY


class CircuitState(enum.Enum):
    CLOSED = 0  # healthy: all requests pass
    HALF_OPEN = 1  # probing: requests pass; next outcome decides
    OPEN = 2  # condemned: fail fast, admit a probe every interval


@dataclass
class NodeHealth:
    """Mutable health record for one node id."""

    #: EWMA of successful-RPC latency, seconds (None until first success).
    latency_ewma: float | None = None
    #: 1.0 = perfectly healthy, decays toward 0.0 with failures.
    score: float = 1.0
    #: Consecutive timeout count (the breaker's trip counter).
    consecutive_timeouts: int = 0
    state: CircuitState = CircuitState.CLOSED
    #: Fast-failed attempts since the circuit opened (half-open pacing).
    blocked: int = 0
    successes: int = 0
    failures: int = 0


#: EWMA smoothing factor for both the latency and the score.
ALPHA = 0.3
#: While a node's circuit is open, every this-many blocked attempts one
#: probe is admitted (half-open).
PROBE_INTERVAL = 8
#: A hedged read waits this multiple of the node's latency EWMA ...
HEDGE_DELAY_MULTIPLIER = 4.0
#: ... but never less than this many seconds (a cold EWMA hedges here).
HEDGE_DELAY_FLOOR = 0.005


class HealthRegistry:
    """Shared per-node health state: EWMA scoring + circuit breakers.

    The breaker's trip threshold is passed per call (it is per-client
    config, while the health state itself is deployment-wide).
    """

    def __init__(self):
        self.metrics = NULL_REGISTRY
        self._nodes: dict[str, NodeHealth] = {}
        self._lock = threading.Lock()
        #: CLOSED->OPEN transitions, total (tests/reporting).
        self.breaker_opens = 0

    def _node(self, node_id: str) -> NodeHealth:
        health = self._nodes.get(node_id)
        if health is None:
            health = self._nodes[node_id] = NodeHealth()
        return health

    def _export(self, node_id: str, health: NodeHealth) -> None:
        metrics = self.metrics
        if metrics.enabled:
            metrics.gauge("node_health_score", node=node_id).set(health.score)
            metrics.gauge("circuit_state", node=node_id).set(
                health.state.value
            )

    # -- RPC outcome feeds ----------------------------------------------------

    def observe_success(self, node_id: str, latency: float) -> None:
        """A completed RPC: refresh the latency EWMA, heal the score,
        and close the breaker (a live answer beats any suspicion)."""
        a = ALPHA
        with self._lock:
            health = self._node(node_id)
            health.successes += 1
            health.consecutive_timeouts = 0
            health.blocked = 0
            if health.latency_ewma is None:
                health.latency_ewma = latency
            else:
                health.latency_ewma += a * (latency - health.latency_ewma)
            health.score += a * (1.0 - health.score)
            health.state = CircuitState.CLOSED
            self._export(node_id, health)

    def observe_failure(
        self, node_id: str, kind: str, threshold: int
    ) -> bool:
        """A failed RPC; returns True when this failure *trips* the
        breaker (the caller's cue to remap the slot, once).

        ``kind``:

        * ``"timeout"`` — suspicion only; trips after ``threshold``
          consecutive timeouts, exactly the old suspicion-counter
          semantics;
        * ``"unavailable"`` — authoritative fail-stop detection.
          Degrades the score but does *not* open the circuit: a
          detected-crashed (or partitioned) node already fails calls
          instantly, so fast-fail buys nothing — and under the restart
          policy the node returns under the *same id*, which an open
          circuit would keep condemning long after it came back.  The
          caller remaps unconditionally on this evidence regardless;
        * ``"error"`` — degrades the score but never trips (an
          application error proves the node is alive);
        * ``"corruption"`` — the node served bytes that failed their
          integrity check: it is alive, answering, and *lying*.  Trips
          the breaker immediately — harder than a timeout, which needs
          ``threshold`` consecutive strikes — because a liar is worse
          than a ghost: its answers poison k-of-n decodes.  Repair
          traffic still reaches the node via the ordinary half-open
          probe admissions, so recovery closes the circuit itself once
          the damage is rewritten.
        """
        a = ALPHA
        with self._lock:
            health = self._node(node_id)
            health.failures += 1
            health.score -= a * health.score
            tripped = False
            if kind == "timeout":
                if health.state is CircuitState.HALF_OPEN:
                    # Failed probe: back to open, wait another interval.
                    health.state = CircuitState.OPEN
                    health.blocked = 0
                elif health.state is CircuitState.CLOSED:
                    health.consecutive_timeouts += 1
                    if health.consecutive_timeouts >= threshold:
                        health.state = CircuitState.OPEN
                        health.blocked = 0
                        health.consecutive_timeouts = 0
                        self.breaker_opens += 1
                        tripped = True
            elif kind == "corruption":
                if health.state is not CircuitState.OPEN:
                    # One strike: quarantine without waiting for a
                    # threshold (see docstring).
                    health.state = CircuitState.OPEN
                    health.blocked = 0
                    health.consecutive_timeouts = 0
                    self.breaker_opens += 1
                    tripped = True
            self._export(node_id, health)
            return tripped

    def allow_request(self, node_id: str) -> bool:
        """Breaker gate, consulted before issuing an RPC.

        CLOSED and HALF_OPEN pass.  OPEN fails fast, except that every
        :data:`PROBE_INTERVAL`-th blocked attempt is admitted as a
        half-open probe — counted in attempts, not wall time, so the
        decision sequence is deterministic for a seeded workload.
        """
        with self._lock:
            health = self._nodes.get(node_id)
            if health is None or health.state is not CircuitState.OPEN:
                return True
            health.blocked += 1
            if health.blocked >= PROBE_INTERVAL:
                health.state = CircuitState.HALF_OPEN
                health.blocked = 0
                self._export(node_id, health)
                return True
            return False

    # -- derived signals ------------------------------------------------------

    def hedge_delay(self, node_id: str) -> float:
        """How long a hedged read waits on ``node_id`` before racing a
        reconstruct: a multiple of the node's typical latency, floored
        so a cold EWMA never hedges instantly."""
        with self._lock:
            health = self._nodes.get(node_id)
            ewma = health.latency_ewma if health is not None else None
        if ewma is None:
            return HEDGE_DELAY_FLOOR
        return max(HEDGE_DELAY_FLOOR, ewma * HEDGE_DELAY_MULTIPLIER)

    def score(self, node_id: str) -> float:
        with self._lock:
            health = self._nodes.get(node_id)
            return 1.0 if health is None else health.score

    def state(self, node_id: str) -> CircuitState:
        with self._lock:
            health = self._nodes.get(node_id)
            return CircuitState.CLOSED if health is None else health.state

    def latency_ewma(self, node_id: str) -> float | None:
        with self._lock:
            health = self._nodes.get(node_id)
            return None if health is None else health.latency_ewma

    def snapshot(self) -> dict[str, NodeHealth]:
        """Copy of the per-node records (reporting/tests)."""
        with self._lock:
            return {
                node: NodeHealth(
                    latency_ewma=h.latency_ewma,
                    score=h.score,
                    consecutive_timeouts=h.consecutive_timeouts,
                    state=h.state,
                    blocked=h.blocked,
                    successes=h.successes,
                    failures=h.failures,
                )
                for node, h in self._nodes.items()
            }
