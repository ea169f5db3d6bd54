"""The metrics registry: instruments, concurrency, snapshots, exports."""

from __future__ import annotations

import threading

import pytest

from repro.obs import (
    NULL_REGISTRY,
    MetricsRegistry,
    load_snapshot,
    snapshot_to_json,
    to_prometheus,
)
from repro.obs.metrics import Histogram


class TestCounters:
    def test_inc_and_read(self):
        reg = MetricsRegistry()
        reg.counter("ops_total").inc()
        reg.counter("ops_total").inc(4)
        assert reg.counter_value("ops_total") == 5

    def test_labels_split_series(self):
        reg = MetricsRegistry()
        reg.counter("rpc_calls_total", op="swap").inc()
        reg.counter("rpc_calls_total", op="add").inc(2)
        assert reg.counter_value("rpc_calls_total", op="swap") == 1
        assert reg.counter_value("rpc_calls_total", op="add") == 2
        assert reg.counter_value("rpc_calls_total", op="probe") == 0

    def test_label_order_is_canonical(self):
        reg = MetricsRegistry()
        reg.counter("x", a="1", b="2").inc()
        reg.counter("x", b="2", a="1").inc()
        assert reg.counter_value("x", a="1", b="2") == 2

    def test_sum_counter_filters(self):
        reg = MetricsRegistry()
        reg.counter("rpc_calls_total", op="swap", result="ok").inc(3)
        reg.counter("rpc_calls_total", op="swap", result="timeout").inc(1)
        reg.counter("rpc_calls_total", op="add", result="ok").inc(5)
        assert reg.sum_counter("rpc_calls_total") == 9
        assert reg.sum_counter("rpc_calls_total", op="swap") == 4
        assert reg.sum_counter("rpc_calls_total", result="ok") == 8

    def test_concurrent_increments_lose_nothing(self):
        reg = MetricsRegistry()
        threads = 8
        per_thread = 5000

        def worker(i: int) -> None:
            # Mix of resolving fresh and hammering one instrument, from
            # every thread, across two series.
            mine = reg.counter("work_total", thread=i % 2)
            for _ in range(per_thread):
                mine.inc()
                reg.counter("all_total").inc()

        ts = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert reg.counter_value("all_total") == threads * per_thread
        assert reg.sum_counter("work_total") == threads * per_thread


class TestGauges:
    def test_set_and_add(self):
        reg = MetricsRegistry()
        g = reg.gauge("queue_depth")
        g.set(10)
        g.add(-3)
        assert g.value == 7

    def test_registered_gauge_is_lazy(self):
        reg = MetricsRegistry()
        calls = []
        reg.register_gauge("live_size", lambda: calls.append(1) or 42.0, node="a")
        assert calls == []  # nothing until snapshot
        snap = reg.snapshot()
        assert calls == [1]
        row = next(r for r in snap["gauges"] if r["name"] == "live_size")
        assert row["value"] == 42.0
        assert row["labels"] == {"node": "a"}

    def test_failing_gauge_fn_skipped_not_fatal(self):
        reg = MetricsRegistry()
        reg.register_gauge("dead", lambda: 1 / 0)
        reg.counter("ok_total").inc()
        snap = reg.snapshot()  # must not raise
        assert all(r["name"] != "dead" for r in snap["gauges"])


class TestHistograms:
    def test_percentile_empty(self):
        h = Histogram()
        assert h.percentile(50) is None
        assert h.summary()["p99"] is None
        assert h.summary()["count"] == 0

    def test_percentile_single_sample(self):
        h = Histogram()
        h.observe(3.5)
        assert h.percentile(0) == 3.5
        assert h.percentile(50) == 3.5
        assert h.percentile(100) == 3.5

    def test_percentile_bounds_checked(self):
        h = Histogram()
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_nearest_rank(self):
        h = Histogram()
        for v in range(1, 101):  # 1..100
            h.observe(float(v))
        assert h.percentile(50) == 51.0  # rank round(0.5*99)=50 -> samples[50]
        assert h.percentile(95) == 95.0
        assert h.percentile(99) == 99.0

    def test_reservoir_overflow_keeps_exact_count_sum(self):
        h = Histogram(capacity=10)
        for v in range(100):
            h.observe(float(v))
        summary = h.summary()
        # count/sum/min/max stay exact across the whole stream...
        assert summary["count"] == 100
        assert summary["sum"] == sum(range(100))
        assert summary["min"] == 0.0
        assert summary["max"] == 99.0
        # ...while percentiles reflect only the retained window (90..99).
        assert h.percentile(0) == 90.0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Histogram(capacity=0)

    def test_registry_histogram_uses_configured_capacity(self):
        reg = MetricsRegistry(histogram_capacity=4)
        hist = reg.histogram("lat", op="swap")
        for v in range(8):
            hist.observe(float(v))
        assert hist.percentile(0) == 4.0  # only the last 4 retained


class TestSnapshotAndExports:
    def test_snapshot_sorted_and_jsonable(self, tmp_path):
        reg = MetricsRegistry()
        # Same name, different label sets: the sort key must not try to
        # order the label dicts themselves (regression).
        reg.counter("rpc_calls_total", op="swap", result="ok").inc()
        reg.counter("rpc_calls_total", op="add", result="ok").inc()
        reg.gauge("depth", node="b").set(2)
        reg.gauge("depth", node="a").set(1)
        reg.histogram("lat", op="swap").observe(0.5)
        reg.histogram("lat", op="add").observe(0.25)
        snap = reg.snapshot()
        assert [r["labels"]["op"] for r in snap["counters"]] == ["add", "swap"]
        assert [r["labels"]["node"] for r in snap["gauges"]] == ["a", "b"]
        path = tmp_path / "snap.json"
        path.write_text(snapshot_to_json(snap) + "\n")
        assert load_snapshot(str(path)) == snap

    def test_load_snapshot_rejects_wrong_shape(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"counters": []}')
        with pytest.raises(ValueError):
            load_snapshot(str(path))

    def test_exposition_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("rpc_calls_total", op="swap", result="ok").inc(7)
        reg.gauge("node_blocks_materialized", node="storage-0").set(12)
        reg.histogram("rpc_latency_seconds", op="swap").observe(0.001)
        lines = to_prometheus(reg.snapshot()).splitlines()
        assert "# TYPE rpc_calls_total counter" in lines
        assert "# TYPE rpc_latency_seconds summary" in lines
        assert 'rpc_calls_total{op="swap",result="ok"} 7' in lines
        assert 'node_blocks_materialized{node="storage-0"} 12' in lines
        assert 'rpc_latency_seconds_count{op="swap"} 1' in lines
        assert 'rpc_latency_seconds{op="swap",quantile="0.5"} 0.001' in lines


class TestNullRegistry:
    def test_disabled_and_inert(self):
        assert NULL_REGISTRY.enabled is False
        NULL_REGISTRY.counter("x", op="y").inc(5)
        NULL_REGISTRY.gauge("g").set(1)
        NULL_REGISTRY.gauge("g").add(1)
        NULL_REGISTRY.register_gauge("h", lambda: 1.0)
        NULL_REGISTRY.histogram("l").observe(0.5)
        assert NULL_REGISTRY.counter_value("x", op="y") == 0
        assert NULL_REGISTRY.sum_counter("x") == 0
        assert NULL_REGISTRY.histogram("l").percentile(50) is None
        assert NULL_REGISTRY.snapshot() == {
            "counters": [], "gauges": [], "histograms": [],
        }

    def test_exposition_of_empty_snapshot(self):
        assert to_prometheus(NULL_REGISTRY.snapshot()) == ""
