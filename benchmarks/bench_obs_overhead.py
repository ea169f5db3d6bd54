"""Microbench — instrumentation cost on the swap/add hot path.

The observability layer's contract is that an uninstrumented system
pays only guard work: ``StorageNode.handle`` reads the envelope's
``trace`` and checks ``metrics.enabled`` / ``tracer.enabled`` against
the NULL sinks, and the transport adds one ``enabled`` check in
``call`` and one each where it would count the request and the
response.  Payloads are sized only behind those checks, and the op-kind
label rides the same envelope unconditionally and is only read when a
registry is live.  This bench
measures that guard cost directly, relates it to the real cost of a
swap/add storage op, and asserts the disabled-path overhead is under
2%.  It also reports the *enabled* cost (counters + histogram + trace
event per op) for context — that path is allowed to be slower.
"""

from __future__ import annotations

import time

import numpy as np

from repro.erasure.rs import ReedSolomonCode
from repro.erasure.striping import StripeLayout
from repro.ids import BlockAddr, Tid
from repro.net.message import NO_ENVELOPE, Envelope
from repro.obs.metrics import NULL_REGISTRY
from repro.obs.trace import NULL_TRACER
from repro.storage.node import StorageNode, VolumeMeta

from benchmarks.conftest import bench_record as record
from benchmarks.conftest import print_table

BS = 1024
OPS = 2_000
GUARD_LOOPS = 200_000
MAX_DISABLED_OVERHEAD = 0.02


def _make_node() -> StorageNode:
    meta = VolumeMeta(
        code=ReedSolomonCode(2, 4),
        layout=StripeLayout(2, 4),
        block_size=BS,
    )
    return StorageNode("bench-node", 0, {"vol": meta}, seed=0)


def _time_ops(node: StorageNode, op: str, traced: bool) -> float:
    """Seconds per ``swap`` or ``add`` op driven through ``handle``."""
    block = np.full(BS, 7, dtype=np.uint8)
    env = NO_ENVELOPE
    if traced:
        env = Envelope(trace=("bench:w1", "bench:s1", "bench:w1"))
    start = time.perf_counter()
    if op == "swap":
        for i in range(OPS):
            node.handle(
                "swap", BlockAddr("vol", i, 0), block, Tid(1, 0, "b"), env=env
            )
    else:
        for i in range(OPS):
            node.handle(
                "add",
                BlockAddr("vol", i, 2),
                block,
                Tid(1, 2, "b"),
                None,
                0,
                env=env,
            )
    return (time.perf_counter() - start) / OPS


def _guard_cost() -> float:
    """Seconds per op of the exact disabled-path additions: the
    envelope reads plus the NULL-sink ``enabled`` checks made by the
    node and the transport.  The envelope is built whether or not
    observability is on, so building it is not guard work."""
    metrics = NULL_REGISTRY
    tracer = NULL_TRACER
    env = Envelope(kind="write")
    sink = 0
    start = time.perf_counter()
    for _ in range(GUARD_LOOPS):
        if not metrics.enabled:  # Transport.call fast path
            sink += 1
        if metrics.enabled:  # Transport._record_request
            sink += 1
        if metrics.enabled:  # Transport._record_response
            sink += 1
        if metrics.enabled:  # StorageNode.handle
            sink += 1
        if env.trace is not None and tracer.enabled:  # StorageNode.handle
            sink += 1
    elapsed = time.perf_counter() - start
    assert sink == GUARD_LOOPS
    return elapsed / GUARD_LOOPS


def bench_disabled_path_overhead(bench_obs):
    guard = _guard_cost()
    rows = []
    for op in ("swap", "add"):
        disabled = _time_ops(_make_node(), op, traced=False)
        enabled_node = _make_node()
        enabled_node.metrics = bench_obs.registry
        enabled_node.tracer = bench_obs.tracer
        enabled = _time_ops(enabled_node, op, traced=True)
        rows.append((op, disabled, enabled, guard / disabled))
    print_table(
        f"Observability overhead on storage ops ({OPS} ops, {BS} B blocks)",
        ["op", "disabled us/op", "enabled us/op", "guard/op ratio"],
        [
            [op, f"{dis * 1e6:.2f}", f"{en * 1e6:.2f}", f"{ratio:.4%}"]
            for op, dis, en, ratio in rows
        ],
    )
    print(f"  guard cost: {guard * 1e9:.1f} ns/op")
    for op, disabled, enabled, ratio in rows:
        record(
            f"obs_overhead_{op}",
            disabled_us=disabled * 1e6,
            enabled_us=enabled * 1e6,
            guard_ratio=ratio,
        )
        # The acceptance bar: guard work is <2% of a real swap/add op.
        assert ratio < MAX_DISABLED_OVERHEAD, (
            f"{op}: disabled-path guard is {ratio:.2%} of op cost"
        )
