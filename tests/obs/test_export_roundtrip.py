"""Prometheus exposition rendering and snapshot determinism.

CI re-renders captured snapshots with ``to_prometheus``, so each
rendering rule is pinned here on the rendered text: label values
containing quotes, backslashes and newlines are escaped onto one line,
non-finite values use the Prometheus tokens, integral values carry no
fraction, other floats render so ``float`` reads them back exactly, and
a seeded multi-threaded run must snapshot identically every time.
"""

from __future__ import annotations

import json
import math
import threading

from repro.obs import (
    MetricsRegistry,
    snapshot_to_json,
    to_prometheus,
)


def _samples(text: str) -> dict[str, str]:
    """``{series: value text}`` of an exposition's unlabelled samples."""
    return dict(
        line.split(" ")
        for line in text.splitlines()
        if line and not line.startswith("#")
    )


class TestLabelEscaping:
    #: (label value, its escaped exposition form)
    NASTY = [
        ("plain", "plain"),
        ('has "quotes"', r'has \"quotes\"'),
        ("back\\slash", r"back\\slash"),
        ("new\nline", r"new\nline"),
        ('all \\ of "them"\ntogether', r'all \\ of \"them\"\ntogether'),
        ("", ""),
    ]

    def test_nasty_label_values_round_trip(self):
        reg = MetricsRegistry()
        for i, (value, _) in enumerate(self.NASTY):
            reg.counter("escaped_total", src=value).inc(i + 1)
        lines = to_prometheus(reg.snapshot()).splitlines()
        # Every series renders as its own, distinct sample line.
        samples = [l for l in lines if l.startswith("escaped_total")]
        assert len(samples) == len(self.NASTY)
        for i, (_, escaped) in enumerate(self.NASTY):
            assert f'escaped_total{{src="{escaped}"}} {i + 1}' in samples

    def test_label_value_escapes(self):
        reg = MetricsRegistry()
        reg.counter("x_total", msg='a"b\\c\nd').inc(3)
        text = to_prometheus(reg.snapshot())
        assert 'x_total{msg="a\\"b\\\\c\\nd"} 3' in text.splitlines()

    def test_exposition_is_single_logical_lines(self):
        """A newline inside a label value must be escaped, never split
        the sample across physical lines."""
        reg = MetricsRegistry()
        reg.counter("split_total", err="line1\nline2").inc()
        text = to_prometheus(reg.snapshot())
        sample_lines = [
            l for l in text.splitlines() if l and not l.startswith("#")
        ]
        assert any(r"line1\nline2" in l for l in sample_lines)
        assert all("split_total" in l or "line" not in l for l in sample_lines)


class TestNonFiniteValues:
    def test_nan_and_infinities_render_and_parse(self):
        reg = MetricsRegistry()
        reg.gauge("g_nan").set(float("nan"))
        reg.gauge("g_pinf").set(float("inf"))
        reg.gauge("g_ninf").set(float("-inf"))
        samples = _samples(to_prometheus(reg.snapshot()))
        assert samples["g_nan"] == "NaN"
        assert samples["g_pinf"] == "+Inf"
        assert samples["g_ninf"] == "-Inf"
        # The Prometheus tokens are also what ``float`` reads.
        assert math.isnan(float(samples["g_nan"]))
        assert float(samples["g_pinf"]) == float("inf")
        assert float(samples["g_ninf"]) == float("-inf")

    def test_integral_floats_render_without_exponent(self):
        reg = MetricsRegistry()
        reg.counter("big_total").inc(10**12)
        reg.gauge("whole").set(5.0)
        samples = _samples(to_prometheus(reg.snapshot()))
        assert samples["big_total"] == "1000000000000"
        assert samples["whole"] == "5"

    def test_fractional_values_round_trip_exactly(self):
        reg = MetricsRegistry()
        reg.gauge("ratio").set(0.1)
        reg.gauge("third").set(1 / 3)
        samples = _samples(to_prometheus(reg.snapshot()))
        assert samples["ratio"] == "0.1"  # shortest repr, not 0.1000...01
        assert float(samples["third"]) == 1 / 3


class TestLosslessRoundTrip:
    def test_full_registry_round_trips(self):
        """Every series of a mixed registry renders with its exact
        label set and value, histograms as quantiles + count + sum."""
        reg = MetricsRegistry()
        reg.counter("rpc_messages_total", kind="write", dir="request").inc(12)
        reg.counter("rpc_messages_total", kind="write", dir="response").inc(12)
        reg.counter("rpc_bytes_sent_total", kind="write").inc(4096)
        reg.gauge("nodes_live").set(5)
        h = reg.histogram("op_seconds", op="swap")
        for v in (0.25, 0.5, 0.75):
            h.observe(v)
        lines = to_prometheus(reg.snapshot()).splitlines()
        for sample in (
            'rpc_messages_total{dir="request",kind="write"} 12',
            'rpc_messages_total{dir="response",kind="write"} 12',
            'rpc_bytes_sent_total{kind="write"} 4096',
            "nodes_live 5",
            'op_seconds{op="swap",quantile="0.5"} 0.5',
            'op_seconds{op="swap",quantile="0.99"} 0.75',
            'op_seconds_count{op="swap"} 3',
            'op_seconds_sum{op="swap"} 1.5',
        ):
            assert sample in lines, sample


class TestSnapshotDeterminism:
    def test_threaded_histogram_snapshots_identically(self):
        """Same seeded observations from racing threads → byte-identical
        snapshot JSON, run after run.  Values are dyadic rationals so
        the float sum is order-independent, and the total stays within
        the reservoir so no thread interleaving can evict samples."""

        def run() -> str:
            reg = MetricsRegistry(histogram_capacity=2048)
            threads = 8
            per_thread = 200
            barrier = threading.Barrier(threads)

            def worker(tid: int) -> None:
                barrier.wait()
                for i in range(per_thread):
                    value = (tid * per_thread + i) / 1024.0
                    reg.histogram("lat_seconds", op="swap").observe(value)
                    reg.counter("ops_total", thread=str(tid)).inc()

            ts = [
                threading.Thread(target=worker, args=(t,))
                for t in range(threads)
            ]
            for t in ts:
                t.start()
            for t in ts:
                t.join()
            return snapshot_to_json(reg.snapshot())

        first = run()
        for _ in range(3):
            assert run() == first
        snap = json.loads(first)
        hist = snap["histograms"][0]
        assert hist["count"] == 8 * 200
        assert hist["min"] == 0.0
        assert hist["max"] == (8 * 200 - 1) / 1024.0
