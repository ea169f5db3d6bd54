"""Cluster-wide metrics: counters, gauges, bounded histograms.

The paper's evaluation lives on questions like "how many writes hit the
ORDER path?" and "how many reconstruct bytes did that rebuild move?".
:class:`MetricsRegistry` is the single sink those answers flow into:
every layer (transports, storage nodes, WAL, protocol clients,
monitor/GC/rebuilder) resolves named, labelled instruments from one
shared registry, and exports — Prometheus text exposition or a JSON
snapshot — read the whole cluster at once.

Design rules
------------
* **No-op-cheap when disabled.**  The default registry is
  :data:`NULL_REGISTRY` (``enabled = False``); hot paths guard
  instrumentation behind one attribute check, matching the
  ``NULL_TRACER`` pattern, and null instruments swallow calls.
* **Thread-safe.**  Instruments take a per-instrument lock; resolving
  an instrument takes the registry lock once (callers on hot paths may
  resolve once and keep the instrument).
* **Bounded.**  Histograms keep a capped reservoir of recent samples
  (plus exact count/sum/min/max), so a soak cannot grow memory without
  bound; percentiles are computed over the reservoir at snapshot time.
* **Deterministic-friendly.**  Nothing here feeds soak digests: metric
  values may include wall-clock latencies, but enabling or disabling
  the registry never changes protocol behaviour.
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Callable

#: Canonical ordering of a label set, so {"op": "swap"} and identical
#: mappings resolve to the same instrument.
LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (sizes, depths, utilization)."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Bounded-reservoir histogram with exact count/sum/min/max.

    Percentiles are nearest-rank over the most recent ``capacity``
    samples — good enough for p50/p95/p99 of RPC latencies without
    unbounded memory.
    """

    __slots__ = ("_samples", "_count", "_sum", "_min", "_max", "_lock")

    def __init__(self, capacity: int = 2048) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._samples: deque[float] = deque(maxlen=capacity)
        self._count = 0
        self._sum = 0.0
        self._min: float | None = None
        self._max: float | None = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._samples.append(value)
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def percentile(self, q: float) -> float | None:
        """Nearest-rank percentile of the retained reservoir, or None
        when no samples were observed.  ``q`` in [0, 100]."""
        with self._lock:
            samples = sorted(self._samples)
        if samples and not 0.0 <= q <= 100.0:
            raise ValueError("q must be in [0, 100]")
        return _nearest_rank(samples, q)

    def summary(self) -> dict[str, float | int | None]:
        with self._lock:
            samples = sorted(self._samples)
            count, total = self._count, self._sum
            lo, hi = self._min, self._max
        return {
            "count": count,
            "sum": total,
            "min": lo,
            "max": hi,
            "p50": _nearest_rank(samples, 50),
            "p95": _nearest_rank(samples, 95),
            "p99": _nearest_rank(samples, 99),
        }


def _nearest_rank(samples: list[float], q: float) -> float | None:
    """Nearest-rank ``q``-th percentile of already sorted ``samples``;
    None when there are none."""
    if not samples:
        return None
    rank = round(q / 100.0 * (len(samples) - 1))
    return samples[max(0, min(len(samples) - 1, rank))]


class MetricsRegistry:
    """Shared, thread-safe registry of named, labelled instruments."""

    #: Hot paths branch on this: ``if registry.enabled: ...``.
    enabled = True

    def __init__(self, histogram_capacity: int = 2048) -> None:
        self.histogram_capacity = histogram_capacity
        self._lock = threading.Lock()
        self._counters: dict[tuple[str, LabelKey], Counter] = {}
        self._gauges: dict[tuple[str, LabelKey], Gauge] = {}
        self._gauge_fns: dict[tuple[str, LabelKey], Callable[[], float]] = {}
        self._histograms: dict[tuple[str, LabelKey], Histogram] = {}

    # -- instrument resolution ------------------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        key = (name, _label_key(labels))
        with self._lock:
            inst = self._counters.get(key)
            if inst is None:
                inst = self._counters[key] = Counter()
        return inst

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = (name, _label_key(labels))
        with self._lock:
            inst = self._gauges.get(key)
            if inst is None:
                inst = self._gauges[key] = Gauge()
        return inst

    def register_gauge(
        self, name: str, fn: Callable[[], float], **labels: object
    ) -> None:
        """A lazily evaluated gauge: ``fn`` is called at snapshot time,
        so live sizes (recentlist entries, WAL frames) cost nothing on
        the hot path."""
        with self._lock:
            self._gauge_fns[(name, _label_key(labels))] = fn

    def histogram(self, name: str, **labels: object) -> Histogram:
        key = (name, _label_key(labels))
        with self._lock:
            inst = self._histograms.get(key)
            if inst is None:
                inst = self._histograms[key] = Histogram(self.histogram_capacity)
        return inst

    # -- reads ----------------------------------------------------------------

    def counter_value(self, name: str, **labels: object) -> int:
        """Current value, 0 when the series was never touched."""
        key = (name, _label_key(labels))
        with self._lock:
            inst = self._counters.get(key)
        return inst.value if inst is not None else 0

    def sum_counter(self, name: str, **label_filter: object) -> int:
        """Sum of every ``name`` series whose labels match the filter."""
        want = {k: str(v) for k, v in label_filter.items()}
        with self._lock:
            items = [
                (dict(lk), inst)
                for (n, lk), inst in self._counters.items()
                if n == name
            ]
        total = 0
        for labels, inst in items:
            if all(labels.get(k) == v for k, v in want.items()):
                total += inst.value
        return total

    def snapshot(self) -> dict:
        """JSON-able view of every series (see docs/OBSERVABILITY.md)."""
        with self._lock:
            counters = [
                (name, dict(lk), inst) for (name, lk), inst in self._counters.items()
            ]
            gauges = [
                (name, dict(lk), inst) for (name, lk), inst in self._gauges.items()
            ]
            gauge_fns = [
                (name, dict(lk), fn) for (name, lk), fn in self._gauge_fns.items()
            ]
            histograms = [
                (name, dict(lk), inst)
                for (name, lk), inst in self._histograms.items()
            ]
        out: dict = {"counters": [], "gauges": [], "histograms": []}
        for name, labels, inst in sorted(counters, key=lambda t: (t[0], sorted(t[1].items()))):
            out["counters"].append(
                {"name": name, "labels": labels, "value": inst.value}
            )
        for name, labels, inst in sorted(gauges, key=lambda t: (t[0], sorted(t[1].items()))):
            out["gauges"].append(
                {"name": name, "labels": labels, "value": inst.value}
            )
        for name, labels, fn in sorted(gauge_fns, key=lambda t: (t[0], sorted(t[1].items()))):
            try:
                value = float(fn())
            except Exception:  # a dying component must not break export
                continue
            out["gauges"].append({"name": name, "labels": labels, "value": value})
        for name, labels, inst in sorted(histograms, key=lambda t: (t[0], sorted(t[1].items()))):
            row = {"name": name, "labels": labels}
            row.update(inst.summary())
            out["histograms"].append(row)
        return out


class _NullCounter:
    __slots__ = ()
    value = 0

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    value = 0.0

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    count = 0

    def observe(self, value: float) -> None:
        pass

    def percentile(self, q: float) -> float | None:
        return None

    def summary(self) -> dict:
        return {
            "count": 0, "sum": 0.0, "min": None, "max": None,
            "p50": None, "p95": None, "p99": None,
        }


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class NullRegistry:
    """The default no-op registry (shared singleton).

    Mirrors the full :class:`MetricsRegistry` surface so code written
    against a registry never branches on its type — only, optionally,
    on :attr:`enabled` for hot paths.
    """

    enabled = False

    def counter(self, name: str, **labels: object) -> _NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str, **labels: object) -> _NullGauge:
        return _NULL_GAUGE

    def register_gauge(
        self, name: str, fn: Callable[[], float], **labels: object
    ) -> None:
        pass

    def histogram(self, name: str, **labels: object) -> _NullHistogram:
        return _NULL_HISTOGRAM

    def counter_value(self, name: str, **labels: object) -> int:
        return 0

    def sum_counter(self, name: str, **label_filter: object) -> int:
        return 0

    def snapshot(self) -> dict:
        return {"counters": [], "gauges": [], "histograms": []}


NULL_REGISTRY = NullRegistry()
