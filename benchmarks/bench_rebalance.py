"""Rebalance traffic — bytes moved by a grow vs the bytes the remapped
stripes own.

The consistent-hash placement map's selling point is that growing the
pool remaps a bounded slice of the stripes, and even a remapped stripe
keeps some positions on their old slots (those pairs copy nothing).
This bench grows a loaded cluster by several increments and records the
``rebalance_bytes`` rows the elastic soak's ``rebalance_bytes_bounded``
invariant is calibrated against: bytes moved must stay within 2x the
bytes owned by the remapped stripes, and well under the full reshuffle
a modulo-placement scheme would force.
"""

from __future__ import annotations

import numpy as np

from repro.core.cluster import Cluster

from benchmarks.conftest import bench_record, print_table

K, N, BS = 2, 4, 128
POOL = 8
STRIPES = 24


def _grow_once(grow: int):
    cluster = Cluster(K, N, block_size=BS, pool=POOL, seed=7)
    writer = cluster.protocol_client("writer")
    for stripe in range(STRIPES):
        writer.write(stripe, 0, np.full(BS, stripe + 1, dtype=np.uint8))
    new = cluster.add_storage(grow)
    placement = cluster.placement
    placement.propose(placement.members() | set(new))
    moved = placement.moved_stripes(range(STRIPES))
    report = cluster.rebalancer("reb").migrate_all(
        placement.pending_stripes(range(STRIPES))
    )
    assert not report.unfinished
    for stripe in range(STRIPES):
        value = bytes(cluster.protocol_client(f"r{grow}").read(stripe, 0))
        assert value == bytes(np.full(BS, stripe + 1, dtype=np.uint8))
    return len(moved), report.bytes_moved


def bench_rebalance_bytes():
    rows = [(grow, *_grow_once(grow)) for grow in (2, 4, 8)]
    table = []
    full_reshuffle = STRIPES * N * BS
    for grow, moved, bytes_moved in rows:
        owned = moved * N * BS
        bench_record(
            "rebalance_bytes",
            pool=POOL,
            grow=grow,
            stripes=STRIPES,
            moved_stripes=moved,
            bytes_moved=bytes_moved,
            bytes_owned=owned,
            full_reshuffle_bytes=full_reshuffle,
            ratio=round(bytes_moved / owned, 3) if owned else 0.0,
        )
        table.append(
            [
                f"{POOL}->{POOL + grow}",
                f"{moved}/{STRIPES}",
                bytes_moved,
                owned,
                full_reshuffle,
                f"{bytes_moved / owned:.2f}" if owned else "-",
            ]
        )
        # The soak invariant's bound, and the hazard it exists to catch.
        assert bytes_moved <= 2.0 * owned
        assert bytes_moved < full_reshuffle
    print_table(
        "Rebalance traffic per grow (2-of-4, B=128)",
        ["grow", "moved", "bytes", "owned", "reshuffle", "ratio"],
        table,
    )
