"""Ablation — workload skew vs write-ordering contention.

The protocol's ORDER machinery only kicks in on concurrent writes to
the *same block* — "very rare in most systems" (§3.7) under uniform
traffic, but a Zipf hotspot makes it common.  This bench measures how
ORDER retries and achieved throughput respond to skew, quantifying the
cost of the ordering mechanism under the workloads where it matters.
"""

from __future__ import annotations

from repro.core.cluster import Cluster
from repro.client.config import ClientConfig
from repro.workloads.driver import drive_concurrently
from repro.workloads.patterns import UniformPattern, ZipfPattern

from benchmarks.conftest import print_table

BLOCKS = 24
OPS_EACH = 120
CLIENTS = 3


def _run(make_pattern) -> tuple[float, int, int]:
    cluster = Cluster(k=2, n=4, block_size=128)
    volumes = [
        cluster.client(f"c{i}", ClientConfig(backoff=0.0002)) for i in range(CLIENTS)
    ]
    patterns = [make_pattern(seed) for seed in range(CLIENTS)]
    result = drive_concurrently(volumes, patterns, OPS_EACH)
    retries = sum(v.protocol.stats.order_retries for v in volumes)
    recoveries = sum(v.protocol.stats.recoveries_started for v in volumes)
    for stripe in range(BLOCKS // 2):
        assert cluster.stripe_consistent(stripe)
    return result.ops_per_second(), retries, recoveries


def bench_hotspot_order_contention():
    uniform = _run(lambda s: UniformPattern(BLOCKS, 0.0, seed=s))
    mild = _run(lambda s: ZipfPattern(BLOCKS, 0.0, seed=s, theta=0.5))
    hot = _run(lambda s: ZipfPattern(BLOCKS, 0.0, seed=s, theta=0.99))
    single = _run(lambda s: UniformPattern(1, 0.0, seed=s))  # worst case
    rows = [
        ["uniform", f"{uniform[0]:.0f}", uniform[1], uniform[2]],
        ["zipf θ=0.5", f"{mild[0]:.0f}", mild[1], mild[2]],
        ["zipf θ=0.99", f"{hot[0]:.0f}", hot[1], hot[2]],
        ["single block", f"{single[0]:.0f}", single[1], single[2]],
    ]
    print_table(
        f"Ablation — skew vs ORDER contention ({CLIENTS} clients x {OPS_EACH} writes)",
        ["workload", "ops/s", "ORDER retries", "recoveries"],
        rows,
    )
    # The single-block worst case dominates every diffuse workload by a
    # wide margin (diffuse workloads' retry counts are noisy but small).
    assert single[1] > 5 * max(uniform[1], mild[1], hot[1], 1)
    assert single[1] > 0  # the ordering path is genuinely exercised
    # Even under maximal contention nothing diverges (consistency was
    # asserted inside _run) and throughput stays nonzero.
    assert single[0] > 0
