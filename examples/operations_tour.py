"""Operations tour: workloads, scrubbing, bulk rebuild, tracing.

Run:  python examples/operations_tour.py

The maintenance toolkit an operator of this system would use:
1. drive a skewed (Zipf) workload from several clients;
2. scrub all stripes — verify the code equations against the actual
   bytes, catching silent corruption;
3. crash a node and bulk-rebuild with a rate limit, watching progress;
4. inspect the protocol trace of what recovery actually did.
"""

from __future__ import annotations

from repro import ClientConfig, Cluster
from repro.client.rebuild import Rebuilder
from repro.client.scrub import Scrubber
from repro.ids import BlockAddr
from repro.obs.trace import Tracer
from repro.workloads import ZipfPattern, drive_concurrently

BLOCKS = 30  # 10 stripes on a 3-of-5 code


def main() -> None:
    cluster = Cluster(k=3, n=5, block_size=512)
    stripes = range(BLOCKS // 3)

    # 1. drive a hotspot workload -------------------------------------------
    volumes = [cluster.client(f"app-{i}", ClientConfig()) for i in range(3)]
    patterns = [
        ZipfPattern(BLOCKS, read_fraction=0.3, seed=i, theta=0.8)
        for i in range(3)
    ]
    print("driving 3 clients with Zipf-skewed traffic...")
    result = drive_concurrently(volumes, patterns, operations_each=80)
    print(f"  {result.operations} ops in {result.elapsed:.2f}s "
          f"({result.ops_per_second():.0f} ops/s), errors: {result.errors}")
    retries = sum(v.protocol.stats.order_retries for v in volumes)
    print(f"  ORDER retries under hotspot contention: {retries}")

    # 2. scrub ---------------------------------------------------------------
    print("\nscrubbing all stripes (verify code equations over the data)...")
    for vol in volumes:
        vol.collect_garbage()
    volumes[0].collect_garbage()
    scrubber = Scrubber(cluster.protocol_client("scrubber"))
    report = scrubber.scrub(stripes)
    print(f"  {report.clean}/{report.examined} clean, "
          f"mismatched: {report.mismatched}, repaired: {report.repaired}")

    # inject silent corruption and catch it
    slot = cluster.layout.node_of_stripe_index(2, 4)
    state = cluster.node_for_slot(slot).peek(BlockAddr("vol0", 2, 4))
    state.block = state.block.copy()
    state.block[0] ^= 0xFF
    print("  flipped a byte on a redundant block of stripe 2...")
    report = scrubber.scrub(stripes)
    print(f"  scrub found {report.mismatched}, repaired {report.repaired}")

    # 3. crash + rate-limited rebuild ---------------------------------------
    crashed = cluster.crash_storage(1)
    print(f"\ncrashed {crashed}; bulk rebuild at <= 200 stripes/s:")
    tracer = Tracer()
    rebuild_client = cluster.protocol_client("rebuilder")
    rebuild_client.tracer = tracer
    rebuilder = Rebuilder(
        rebuild_client,
        stripes_per_second=200.0,
        progress=lambda s, rep: print(
            f"    stripe {s}: {len(rep.recovered)} recovered so far"
        ),
    )
    rebuild = rebuilder.rebuild(stripes)
    stripe_bytes = 3 * 512
    print(f"  recovered {len(rebuild.recovered)} stripes in "
          f"{rebuild.elapsed:.2f}s "
          f"({rebuild.recovery_mbps(stripe_bytes):.2f} MB/s of data)")

    # 4. trace ---------------------------------------------------------------
    print("\nwhat the protocol actually did (trace excerpt):")
    for event in tracer.events("recovery.")[:6]:
        print("   ", event)

    healthy = all(cluster.stripe_consistent(s) for s in stripes)
    print(f"\nall stripes consistent: {healthy}")


if __name__ == "__main__":
    main()
