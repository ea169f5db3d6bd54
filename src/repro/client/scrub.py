"""Scrubbing: verify stripes against the erasure code, end to end.

The monitor (§3.10) inspects *metadata* (tid lists, lock and op modes);
a scrubber inspects *data*: it fetches every block of a stripe and
checks the code equations `b_j = Σ alpha_ji · b_i` actually hold.  This
catches what metadata cannot — silent corruption in a storage medium —
and is standard practice in production arrays.  Scrubbing a quiescent,
healthy stripe is read-only; a stripe that fails verification is
repaired with the ordinary recovery procedure (which locks, decodes
from a consistent subset, and rewrites).

A stripe with in-flight writes can transiently fail the equation check
without being damaged; the scrubber re-checks under recovery's locks
before concluding corruption (recovery itself is the arbiter).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from repro.client.protocol import ProtocolClient
from repro.errors import NodeBusyError, NodeUnavailableError
from repro.storage.state import OpMode


@dataclass
class ScrubReport:
    """Outcome of one scrub pass."""

    examined: int = 0
    clean: int = 0
    unavailable: list[int] = field(default_factory=list)  # blocks missing
    mismatched: list[int] = field(default_factory=list)  # equations failed
    repaired: list[int] = field(default_factory=list)
    #: (stripe, index) pairs where the mismatch was *located* to one
    #: silently corrupted block (e.g. a WAL bit flip) and repaired by
    #: reconstructing from everyone else.
    corrupt_blocks: list[tuple[int, int]] = field(default_factory=list)

    @property
    def healthy(self) -> bool:
        return not self.unavailable and not self.mismatched


class Scrubber:
    """Verify (and optionally repair) stripes against the code."""

    def __init__(self, client: ProtocolClient, repair: bool = True):
        self.client = client
        self.repair = repair

    def _snapshot_stripe(self, stripe: int):
        """(verdict, blocks): True = verified; False = mismatch, with
        the block images for corruption location; None = blocks
        unavailable/busy or the stripe is mid-operation (cannot judge)."""
        snapshots = {}
        for j in range(self.client.n):
            try:
                snap = self.client.rpc("scrub", stripe, j, "get_state")
            except (NodeUnavailableError, NodeBusyError):
                return None, None
            if snap.opmode is not OpMode.NORM or snap.block is None:
                return None, None
            if snap.recentlist:
                # In-flight writes: equations may transiently not hold.
                return None, None
            snapshots[j] = snap.block
        ok = self.client.code.is_consistent_stripe(
            [snapshots[j] for j in range(self.client.n)]
        )
        return ok, snapshots

    def _stripe_equations_hold(self, stripe: int) -> bool | None:
        verdict, _ = self._snapshot_stripe(stripe)
        return verdict

    def _locate_corruption(self, blocks: dict) -> list[int]:
        """Indices j such that the stripe is fully consistent *without*
        block j: excluding the actually-corrupt block leaves a clean
        stripe whose reconstruction matches every survivor, while
        excluding an innocent one leaves the corruption inside and the
        cross-check fails.  A single silent corruption therefore yields
        exactly one candidate (given n - k >= 2 blocks of redundancy to
        cross-check against; with n - k == 1 every exclusion passes and
        the damage is detectable but not locatable)."""
        code = self.client.code
        candidates: list[int] = []
        for j in sorted(blocks):
            available = {i: b for i, b in blocks.items() if i != j}
            if len(available) < self.client.k:
                continue
            try:
                predicted = code.reconstruct_stripe(available)
            except Exception:
                continue
            if all(
                np.array_equal(predicted[i], available[i])
                for i in available
            ):
                candidates.append(j)
        return candidates

    def scrub(self, stripes) -> ScrubReport:
        report = ScrubReport()
        client = self.client
        for stripe in stripes:
            report.examined += 1
            verdict, blocks = self._snapshot_stripe(stripe)
            if verdict is True:
                report.clean += 1
                continue
            if verdict is None:
                report.unavailable.append(stripe)
            else:
                report.mismatched.append(stripe)
            if not self.repair:
                continue
            exclude: frozenset[int] | None = None
            if blocks is not None:
                corrupt = self._locate_corruption(blocks)
                if len(corrupt) == 1:
                    # Located one silently corrupted block: repair by
                    # reconstructing the stripe from everyone else
                    # (plain recovery would trust the corrupt block —
                    # its tid metadata is indistinguishably clean).
                    report.corrupt_blocks.append((stripe, corrupt[0]))
                    client.tracer.emit(
                        client.client_id, "scrub.corruption",
                        stripe=stripe, index=corrupt[0],
                    )
                    exclude = frozenset(corrupt)
            client._start_recovery(stripe, exclude=exclude)
            if self._stripe_equations_hold(stripe) is True:
                report.repaired.append(stripe)
        return report


def detection_probability(total: int, corrupt: int, samples: int) -> float:
    """P(a uniform sample of ``samples`` distinct (stripe, position)
    pairs hits at least one of ``corrupt`` bad blocks among ``total``).

    Sampling without replacement, so this is the hypergeometric
    complement ``1 - C(total-corrupt, samples) / C(total, samples)``
    — the analytic curve the :class:`SamplingAuditor` is benched
    against (DAS/Walrus-style: modest sample counts already yield high
    per-sweep detection probability, and misses are independent across
    sweeps, so detection is eventual with probability 1).
    """
    if corrupt <= 0 or total <= 0 or samples <= 0:
        return 0.0
    samples = min(samples, total)
    p_miss = 1.0
    for i in range(samples):
        p_miss *= max(0, total - corrupt - i) / (total - i)
    return 1.0 - p_miss


@dataclass
class AuditReport:
    """Outcome of one sampling-audit sweep."""

    sweep: int = 0
    samples: int = 0  # probes issued
    verified: int = 0  # probes whose stored/live digests agreed
    skipped: int = 0  # probes with no meaningful verdict (mid-write etc.)
    #: (stripe, index) pairs whose fingerprint probe convicted the block.
    hits: list[tuple[int, int]] = field(default_factory=list)
    escalations: int = 0  # exclude-one cross-checks run (one per hit)
    #: Corruption locations confirmed by the escalated exclude-one scrub.
    corrupt_blocks: list[tuple[int, int]] = field(default_factory=list)
    repaired: list[int] = field(default_factory=list)


class SamplingAuditor:
    """Probabilistic integrity auditing: sample fingerprints, escalate
    on a hit.

    A full scrub moves every block of every stripe over the wire; this
    auditor instead verifies a seeded random sample of (stripe,
    position) *fingerprints* per sweep — two digests per probe, no
    block payload — and only on a mismatch escalates to the expensive
    exclude-one parity cross-check (and repair) for that one stripe.
    Per-sweep detection probability follows
    :func:`detection_probability`; sweeps draw independent samples, so
    any persistent at-rest corruption is detected eventually.

    Determinism: the sample for sweep ``t`` comes from
    ``random.Random(f"audit|{seed}|{t}")`` — no global RNG, no clock —
    so a seeded soak audits the same pairs on every run.
    """

    def __init__(
        self,
        client: ProtocolClient,
        seed: int = 0,
        samples_per_sweep: int = 16,
        repair: bool = True,
    ):
        self.client = client
        self.seed = seed
        self.samples_per_sweep = samples_per_sweep
        self.repair = repair
        self._sweep_no = 0

    def _probe(self, stripe: int, index: int) -> bool | None:
        """True = digests agree; False = at-rest corruption; None = no
        meaningful verdict (unreachable, mid-write, INIT/RECONS limbo,
        or no fingerprint on record) — never reported as corruption."""
        try:
            fp = self.client.rpc("audit", stripe, index, "fingerprint")
        except (NodeUnavailableError, NodeBusyError):
            return None
        if fp.stored is None or fp.opmode is not OpMode.NORM or fp.pending:
            return None
        return fp.live == fp.stored

    def sweep(self, stripes) -> AuditReport:
        sweep_no = self._sweep_no
        self._sweep_no += 1
        client = self.client
        report = AuditReport(sweep=sweep_no)
        pairs = [
            (stripe, j) for stripe in sorted(stripes) for j in range(client.n)
        ]
        count = min(self.samples_per_sweep, len(pairs))
        if count <= 0:
            return report
        rng = random.Random(f"audit|{self.seed}|{sweep_no}")
        sample = sorted(rng.sample(pairs, count))
        for stripe, index in sample:
            report.samples += 1
            if client.metrics.enabled:
                client.metrics.counter("audit_samples_total").inc()
            verdict = self._probe(stripe, index)
            if verdict is None:
                report.skipped += 1
                continue
            if verdict:
                report.verified += 1
                continue
            report.hits.append((stripe, index))
            node_id = client.node_of(stripe, index)
            client._note_corruption("audit", stripe, index, node_id)
            # Escalate: the cheap probe only convicts one block; the
            # exclude-one cross-check confirms the location against the
            # code equations.  Run it *before* quarantining the node —
            # an open circuit would blind the stripe snapshot.
            report.escalations += 1
            scrubber = Scrubber(client, repair=False)
            _, blocks = scrubber._snapshot_stripe(stripe)
            located: list[int] = []
            if blocks is not None:
                located = scrubber._locate_corruption(blocks)
            if len(located) == 1:
                report.corrupt_blocks.append((stripe, located[0]))
            client.health.observe_failure(
                node_id, "corruption", client.config.suspicion_threshold
            )
            if self.repair:
                # Never a no-exclude recovery here: the liar's metadata
                # is clean, so unexcluded it could be decoded *from*.
                # Prefer the parity-confirmed location; fall back to the
                # fingerprint's (e.g. n-k == 1, where damage is
                # detectable but not parity-locatable).
                exclude = (
                    frozenset(located)
                    if len(located) == 1
                    else frozenset({index})
                )
                client._start_recovery(stripe, exclude=exclude)
                if scrubber._stripe_equations_hold(stripe) is True:
                    report.repaired.append(stripe)
        return report
