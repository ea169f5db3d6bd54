"""Replicated-directory quorum costs: lookup latency and wire messages.

The quorum directory replaces a single in-process map with an R-replica
consensus group, so every cold lookup costs one fan-out round (2·R
messages) and every RMW (bind/remap/generation commit) costs three
(prepare, accept, apply — 6·R messages).  This bench measures both
against replica counts 3 and 5 and verifies the wire truth matches the
``CostModel.directory_messages`` prediction exactly in a fault-free
run, plus the cache effectiveness that keeps the steady-state cost off
the quorum entirely (DirectoryCache hits pay zero messages).
"""

from __future__ import annotations

import time

from repro.analysis.costmodel import sum_counters
from repro.directory import (
    DirectoryCache,
    DirectoryReplica,
    ReplicatedDirectory,
)
from repro.net.local import LocalTransport
from repro.obs import Observability

from benchmarks.conftest import bench_record as record
from benchmarks.conftest import print_table

SLOTS = 16
LOOKUPS = 200


def _provision(slot: int, incarnation: int) -> str:
    return f"storage-{slot}.{incarnation}"


def _build(replicas: int):
    obs = Observability.create()
    transport = LocalTransport()
    transport.metrics = obs.registry
    nodes = [DirectoryReplica(f"dir-{i}") for i in range(replicas)]
    for node in nodes:
        transport.register(node.replica_id, node)
    directory = ReplicatedDirectory(
        "bench-client", transport, [n.replica_id for n in nodes], _provision
    )
    directory.metrics = obs.registry
    return obs, directory


def _wire_messages(obs) -> int:
    return int(
        sum_counters(obs.registry.snapshot(), "rpc_messages_total",
                     kind="directory")
    )


def _measure(replicas: int) -> dict:
    obs, directory = _build(replicas)
    for slot in range(SLOTS):
        directory.bind(slot, f"storage-{slot}")

    before = _wire_messages(obs)
    start = time.perf_counter()
    for i in range(LOOKUPS):
        directory.lookup(i % SLOTS)
    cold_elapsed = time.perf_counter() - start
    read_messages = _wire_messages(obs) - before
    per_lookup = read_messages / LOOKUPS
    expected = 2 * replicas
    assert per_lookup == expected, (
        f"quorum read cost {per_lookup} != predicted {expected} "
        f"(R={replicas})"
    )

    cache = DirectoryCache(directory)
    for slot in range(SLOTS):
        cache.node_id(slot)  # warm
    before = _wire_messages(obs)
    start = time.perf_counter()
    for i in range(LOOKUPS):
        cache.node_id(i % SLOTS)
    cached_elapsed = time.perf_counter() - start
    assert _wire_messages(obs) == before, "cache hits must cost 0 messages"

    before = _wire_messages(obs)
    directory.remap(0, "storage-0")
    rmw_messages = _wire_messages(obs) - before
    assert rmw_messages == 6 * replicas, (
        f"RMW cost {rmw_messages} != predicted {6 * replicas}"
    )

    return {
        "replicas": replicas,
        "lookup_us": cold_elapsed / LOOKUPS * 1e6,
        "cached_us": cached_elapsed / LOOKUPS * 1e6,
        "read_messages": int(per_lookup),
        "rmw_messages": rmw_messages,
    }


def bench_directory_quorum():
    """Quorum lookup/RMW wire cost scales as 2R / 6R; cache hits free."""
    rows = [_measure(replicas) for replicas in (3, 5)]
    print_table(
        f"Replicated directory quorum costs ({SLOTS} slots, "
        f"{LOOKUPS} lookups)",
        ["replicas", "lookup us", "cached us", "read msgs", "rmw msgs"],
        [
            [
                r["replicas"],
                f"{r['lookup_us']:.1f}",
                f"{r['cached_us']:.2f}",
                r["read_messages"],
                r["rmw_messages"],
            ]
            for r in rows
        ],
    )
    for r in rows:
        record(
            "directory_quorum",
            replicas=r["replicas"],
            read_messages=r["read_messages"],
            rmw_messages=r["rmw_messages"],
            lookup_us=round(r["lookup_us"], 1),
            cached_us=round(r["cached_us"], 2),
        )
