"""Measurement plumbing for simulation runs."""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from repro.obs.metrics import summarize


@dataclass
class Metrics:
    """Operation-completion log with throughput helpers."""

    read_times: list[float] = field(default_factory=list)
    write_times: list[float] = field(default_factory=list)
    read_latencies: list[float] = field(default_factory=list)
    write_latencies: list[float] = field(default_factory=list)

    def record(self, kind: str, completed_at: float, latency: float) -> None:
        if kind == "read":
            self.read_times.append(completed_at)
            self.read_latencies.append(latency)
        elif kind == "write":
            self.write_times.append(completed_at)
            self.write_latencies.append(latency)
        else:
            raise ValueError(f"unknown op kind {kind!r}")

    def _count_window(self, times: list[float], start: float, end: float) -> int:
        return bisect.bisect_right(times, end) - bisect.bisect_left(times, start)

    def ops_per_second(self, kind: str, start: float, end: float) -> float:
        if end <= start:
            return 0.0
        times = self.read_times if kind == "read" else self.write_times
        return self._count_window(times, start, end) / (end - start)

    def throughput_mbps(
        self, kind: str, start: float, end: float, block_size: int
    ) -> float:
        """Aggregate data throughput in MB/s over [start, end]."""
        return self.ops_per_second(kind, start, end) * block_size / 1e6

    def mean_latency(self, kind: str) -> float:
        lat = self.read_latencies if kind == "read" else self.write_latencies
        return sum(lat) / len(lat) if lat else 0.0

    def latency_summary(self, kind: str) -> dict[str, float | int | None]:
        """Percentile summary of the latency distribution (long tails
        matter for storage; benches report p95/p99, not just means):
        ``count``/``sum``/``min``/``max``/``p50``/``p95``/``p99``."""
        lat = self.read_latencies if kind == "read" else self.write_latencies
        return summarize(lat)

    def timeseries(
        self, kind: str, bucket: float, end: float, block_size: int
    ) -> list[tuple[float, float]]:
        """(bucket_start, MB/s) series — the Fig. 9d-style shape."""
        if bucket <= 0:
            raise ValueError("bucket must be positive")
        out = []
        t = 0.0
        while t < end:
            out.append(
                (t, self.throughput_mbps(kind, t, min(t + bucket, end), block_size))
            )
            t += bucket
        return out
