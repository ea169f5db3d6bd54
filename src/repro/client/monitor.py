"""Monitoring mechanism to trigger recovery (§3.10).

After a client crashes mid-write or a storage node crashes, the system
runs with one less failure tolerated — but nobody notices until an
access stumbles on the damage.  The monitor proactively probes every
block slot and starts recovery when it finds:

* ``opmode == INIT``  — a remapped node awaiting reconstruction;
* ``lmode == EXP``    — a recovery whose client crashed;
* a recentlist entry older than ``stale_after`` seconds — a started
  but unfinished write (partial-write window of the paper's fourth
  limitation).

A *deep* sweep additionally catches what probes cannot: a node that
crash-restarted with its own disk (``Cluster.restart_storage``) comes
back ``NORM``, not ``INIT`` — but it may be *delta behind*, missing
writes (or partial writes) that landed while it was down.  The deep
check snapshots all n states and runs recovery's own
``find_consistent`` oracle; a stripe whose maximal consistent set is
smaller than n has diverged tid bookkeeping and is repaired.  Because
the oracle subtracts the union of oldlists (the G set), ordinary GC
timing skew does not produce false positives.

Running the monitor after client crashes — before any storage crash —
restores full recoverability even when the t_p budget was exceeded,
as long as no storage node has failed (the paper's §3.10 claim, which
the failure-injection tests exercise).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.client.consistency import find_consistent
from repro.client.protocol import ProtocolClient
from repro.errors import NodeBusyError, NodeUnavailableError, RpcTimeoutError
from repro.storage.state import LockMode, OpMode, StateSnapshot


@dataclass
class MonitorReport:
    """What one monitoring sweep found and did."""

    probed: int = 0
    stale_writes: int = 0
    init_blocks: int = 0
    expired_locks: int = 0
    unreachable: int = 0
    timeouts: int = 0  # probes that hit their RPC deadline (gray node?)
    busy: int = 0  # probes shed by admission control (overload, not damage)
    delta_behind: int = 0  # deep check: restarted node missing writes
    duplicate_triggers: int = 0  # re-detections suppressed by idempotence
    recovered_stripes: list[int] = field(default_factory=list)


class Monitor:
    """Periodic prober run by some client (any client can serve)."""

    def __init__(self, client: ProtocolClient, stale_after: float = 1.0):
        self.client = client
        self.stale_after = stale_after
        #: Source tag for shared-tracer events, so a drained ring tells
        #: monitor activity apart from the owning client's protocol ops.
        self.source = f"monitor:{client.client_id}"
        # Idempotence of the recovery trigger, per (stripe, epoch).
        # Overlapping sweeps (a deep sweep racing a crash-restart, two
        # sweep threads) can both observe the *same* damage instance;
        # without memoization each observation runs a full recovery.
        # A completed recovery always finalizes into a strictly larger
        # epoch, so "a recovery completed for the epoch I observed"
        # means this damage instance is already handled — while new
        # damage necessarily surfaces at a newer epoch and still fires.
        self._trigger_lock = threading.Lock()
        self._inflight: set[int] = set()
        self._done_epochs: dict[int, int] = {}

    def _should_trigger(self, stripe: int, epoch: int | None) -> bool:
        """Claim the (stripe, epoch) trigger; False = duplicate."""
        with self._trigger_lock:
            if stripe in self._inflight:
                return False
            if epoch is not None and self._done_epochs.get(stripe, -1) >= epoch:
                return False
            self._inflight.add(stripe)
            return True

    def _finish_trigger(
        self, stripe: int, epoch: int | None, completed: bool
    ) -> None:
        with self._trigger_lock:
            self._inflight.discard(stripe)
            if (
                completed
                and epoch is not None
                and epoch > self._done_epochs.get(stripe, -1)
            ):
                self._done_epochs[stripe] = epoch

    def sweep(
        self, stripes: range | list[int], deep: bool = False
    ) -> MonitorReport:
        """Probe all slots of the given stripes; recover damaged stripes.

        With ``deep=True``, stripes whose probes look healthy get the
        full tid-bookkeeping check (``find_consistent`` over all n
        snapshots) — the only way to see that a crash-restarted node is
        delta behind, since it answers probes as a normal NORM node.
        """
        report = MonitorReport()
        cp = self.client.crashpoints
        for stripe in stripes:
            needs, epoch_seen = self._stripe_needs_recovery(stripe, report)
            if not needs and deep and self._stripe_delta_behind(stripe):
                report.delta_behind += 1
                needs = True
            if needs:
                if not self._should_trigger(stripe, epoch_seen):
                    # Same damage instance already handled (or being
                    # handled right now) — re-triggering would run a
                    # redundant full recovery.
                    report.duplicate_triggers += 1
                    continue
                completed = False
                try:
                    if self.client.tracer.enabled:
                        self.client.tracer.emit(
                            self.source, "monitor.trigger_recovery",
                            stripe=stripe,
                        )
                    if cp.enabled:
                        cp.hit("monitor.before_recover", stripe=stripe)
                    completed = self.client._start_recovery(stripe)
                    report.recovered_stripes.append(stripe)
                finally:
                    self._finish_trigger(stripe, epoch_seen, completed)
        metrics = self.client.metrics
        if metrics.enabled:
            metrics.counter("monitor_sweeps_total").inc()
            metrics.counter("monitor_probes_total").inc(report.probed)
            for kind, value in (
                ("stale_write", report.stale_writes),
                ("init_block", report.init_blocks),
                ("expired_lock", report.expired_locks),
                ("unreachable", report.unreachable),
                ("timeout", report.timeouts),
                ("busy", report.busy),
                ("delta_behind", report.delta_behind),
                ("duplicate_trigger", report.duplicate_triggers),
            ):
                if value:
                    metrics.counter("monitor_findings_total", kind=kind).inc(value)
            metrics.counter("monitor_recoveries_total").inc(
                len(report.recovered_stripes)
            )
        return report

    def _stripe_delta_behind(self, stripe: int) -> bool:
        """True when some NORM node's tid lists have diverged — e.g. a
        restarted node that missed (or only partially saw) writes while
        it was down.  Uses recovery's own oracle, so it never flags a
        stripe recovery would consider fully consistent."""
        client = self.client
        data: dict[int, StateSnapshot] = {}
        for j in range(client.n):
            try:
                data[j] = client.rpc("monitor", stripe, j, "get_state")
            except NodeBusyError:
                return False  # overloaded != degraded; check next sweep
            except NodeUnavailableError:
                return True  # unreachable mid-check: clearly degraded
        cset = find_consistent(data, client.k)
        return len(cset) < client.n

    def _stripe_needs_recovery(
        self, stripe: int, report: MonitorReport
    ) -> tuple[bool, int | None]:
        """(damage found?, max epoch observed) — the epoch keys the
        trigger memoization; None when no probe answered."""
        needs = False
        epochs: list[int] = []
        for j in range(self.client.n):
            report.probed += 1
            try:
                opmode, lmode, age, epoch = self.client.rpc(
                    "monitor", stripe, j, "probe"
                )
                epochs.append(epoch)
            except NodeBusyError:
                # Overload is explicitly NOT damage: a busy node is
                # alive and consistent.  Starting recovery here would
                # add reconstruction traffic on top of the overload.
                report.busy += 1
                continue
            except RpcTimeoutError:
                # Suspected only: the node may be gray.  Recovery is
                # still warranted — the stripe is effectively degraded
                # while the node is silent — but rpc only remaps it
                # once suspicion crosses the configured threshold.
                report.timeouts += 1
                needs = True
                continue
            except NodeUnavailableError:
                # rpc already remapped the slot; the fresh node is INIT.
                report.unreachable += 1
                needs = True
                continue
            if opmode is OpMode.INIT:
                report.init_blocks += 1
                needs = True
            if lmode is LockMode.EXP:
                report.expired_locks += 1
                needs = True
            if age is not None and age > self.stale_after:
                report.stale_writes += 1
                needs = True
        return needs, (max(epochs) if epochs else None)
