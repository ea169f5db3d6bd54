"""Bulk rebuild after a storage-node failure.

On-access recovery (Fig. 9d) repairs stripes lazily; until every stripe
holding a block of the crashed node has been touched, the system runs
with reduced resiliency.  The paper's §6.2 also measures the proactive
alternative: clients sweeping the damaged stripes sequentially
("aggregate recovery throughput is around 17 MB/s").

:class:`Rebuilder` is that sweep as a managed task: it probes each
stripe cheaply, recovers only the damaged ones, optionally rate-limits
itself so foreground traffic is not starved, reports progress, and can
be run synchronously or on a background thread.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from repro.client.protocol import ProtocolClient
from repro.errors import NodeBusyError, NodeUnavailableError, RecoveryFailedError
from repro.storage.state import LockMode, OpMode


@dataclass
class RebuildReport:
    """Outcome of one rebuild sweep."""

    examined: int = 0
    healthy: int = 0
    recovered: list[int] = field(default_factory=list)
    failed: list[int] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def damaged(self) -> int:
        return len(self.recovered) + len(self.failed)

    def recovery_mbps(self, stripe_bytes: int) -> float:
        """Aggregate rebuild throughput (§6.2's metric)."""
        if self.elapsed <= 0:
            return 0.0
        return len(self.recovered) * stripe_bytes / self.elapsed / 1e6


class Rebuilder:
    """Sequentially repair damaged stripes, optionally rate-limited."""

    def __init__(
        self,
        client: ProtocolClient,
        stripes_per_second: float | None = None,
        progress: Callable[[int, RebuildReport], None] | None = None,
    ):
        self.client = client
        self.stripes_per_second = stripes_per_second
        self.progress = progress
        self.source = f"rebuild:{client.client_id}"

    def _stripe_damaged(self, stripe: int) -> bool:
        """One cheap probe per slot; damaged = INIT block, expired lock,
        or an unreachable (crashed, not yet remapped) node.  A shed probe
        says nothing either way, so the stripe counts as undamaged only
        when no answered position shows damage.  A restarted node that
        silently missed writes looks NORM to probes; the monitor's deep
        sweep is what finds it."""
        for j in range(self.client.n):
            try:
                opmode, lmode, _age, _epoch = self.client.rpc(
                    "rebuild", stripe, j, "probe"
                )
            except NodeBusyError:
                continue  # overloaded, not damaged; probe the rest
            except NodeUnavailableError:
                return True  # rpc remapped the slot; recovery needed
            if opmode is not OpMode.NORM or lmode is LockMode.EXP:
                return True
        return False

    def rebuild(
        self,
        stripes: Iterable[int],
        stop: threading.Event | None = None,
    ) -> RebuildReport:
        """Sweep ``stripes``; returns a report.  Honors ``stop`` between
        stripes so a controller can abort a long rebuild."""
        report = RebuildReport()
        tracer = self.client.tracer
        if tracer.enabled:
            tracer.emit(self.source, "rebuild.begin")
        start = time.perf_counter()
        pace = (
            1.0 / self.stripes_per_second
            if self.stripes_per_second and self.stripes_per_second > 0
            else 0.0
        )
        for stripe in stripes:
            if stop is not None and stop.is_set():
                break
            stripe_start = time.perf_counter()
            report.examined += 1
            if not self._stripe_damaged(stripe):
                report.healthy += 1
            else:
                try:
                    self.client._start_recovery(stripe)
                    if self._stripe_damaged(stripe):
                        report.failed.append(stripe)
                    else:
                        report.recovered.append(stripe)
                except RecoveryFailedError:
                    report.failed.append(stripe)
            if self.progress is not None:
                self.progress(stripe, report)
            if pace:
                remaining = pace - (time.perf_counter() - stripe_start)
                if remaining > 0:
                    time.sleep(remaining)
        report.elapsed = time.perf_counter() - start
        metrics = self.client.metrics
        if metrics.enabled:
            metrics.counter("rebuild_sweeps_total").inc()
            metrics.counter("rebuild_stripes_examined_total").inc(report.examined)
            metrics.counter("rebuild_stripes_recovered_total").inc(
                len(report.recovered)
            )
            if report.failed:
                metrics.counter("rebuild_stripes_failed_total").inc(
                    len(report.failed)
                )
        if tracer.enabled:
            tracer.emit(
                self.source, "rebuild.end",
                examined=report.examined,
                recovered=len(report.recovered),
                failed=len(report.failed),
            )
        return report

    def rebuild_async(
        self, stripes: Iterable[int]
    ) -> tuple[threading.Thread, threading.Event, list[RebuildReport]]:
        """Run the sweep on a daemon thread.

        Returns (thread, stop_event, result_slot); the report lands in
        ``result_slot[0]`` when the thread finishes."""
        stop = threading.Event()
        result: list[RebuildReport] = []

        def run() -> None:
            result.append(self.rebuild(list(stripes), stop=stop))

        thread = threading.Thread(target=run, name="rebuilder", daemon=True)
        thread.start()
        return thread, stop, result
