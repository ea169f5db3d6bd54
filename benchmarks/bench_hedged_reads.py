"""Hedged degraded reads — tail latency under a gray node.

One node stalls every data-plane read; everything else is healthy.
An un-hedged client eats the stall on every read that lands on the
gray node; a hedged client waits only the hedging delay, then races a
k-of-n reconstruct against the slow primary.  This bench reproduces
the gray-soak's core claim as numbers: hedging trades a little extra
read traffic for an order-of-magnitude cut in read p99.
"""

from __future__ import annotations

from repro.chaos.gray_soak import GraySoakConfig, run_gray_soak

from benchmarks.conftest import bench_record, print_table


def bench_hedged_vs_unhedged_tail():
    config = GraySoakConfig(
        seed=23,
        reads=120,
        stall=0.04,
        hedge_delay=0.01,
        overload=False,
        observe=False,
    )
    report = run_gray_soak(config)

    rows = []
    for phase in (report.unhedged, report.hedged):
        rows.append([
            phase.mode,
            f"{phase.p50 * 1e3:.2f}ms",
            f"{phase.p99 * 1e3:.2f}ms",
            f"{phase.worst * 1e3:.2f}ms",
            phase.gray_hits,
            phase.hedges_fired,
        ])
        bench_record(
            "hedged_reads",
            mode=phase.mode,
            p50_ms=phase.p50 * 1e3,
            p99_ms=phase.p99 * 1e3,
            worst_ms=phase.worst * 1e3,
            mean_ms=phase.mean * 1e3,
            gray_hits=phase.gray_hits,
            hedges_fired=phase.hedges_fired,
        )
    print_table(
        f"Read latency under one gray node ({config.stall * 1e3:.0f}ms "
        f"stall, {config.hedge_delay * 1e3:.0f}ms hedge delay)",
        ["mode", "p50", "p99", "worst", "gray hits", "hedges"],
        rows,
    )

    # The shape the gray soak enforces: same bytes read, same faults
    # injected, strictly better tail.
    assert report.hedged.p99 < report.unhedged.p99
    assert report.unhedged.history_digest == report.hedged.history_digest
    assert report.hedged.hedges_fired > 0
    assert report.hedged.op_failures == 0
