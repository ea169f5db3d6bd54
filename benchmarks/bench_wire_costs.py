"""Wire-truth cost accounting vs the paper cost model.

Where :mod:`bench_fig1_cost_table` validates raw transport traffic
per single op, this bench validates the *attributed* accounting layer:
a fault-free workload covering every op kind (writes, reads, a
three-phase recovery, GC, monitor, scrub) must reconcile **exactly**
against the :class:`~repro.analysis.costmodel.CostModel` predictions —
per-kind messages, rounds, and byte envelopes — and the attribution
itself must be total (no wire traffic lands in the ``other`` bucket).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.costmodel import CostAuditor, CostModel, measured_kinds
from repro.client.config import ClientConfig, WriteStrategy
from repro.client.gc import GcManager
from repro.client.monitor import Monitor
from repro.client.scrub import Scrubber
from repro.core.cluster import Cluster
from repro.obs import Observability

from benchmarks.conftest import bench_record as record
from benchmarks.conftest import print_table

K, N, BS = 3, 5, 1024
WRITES = 8
STRIPES = 3


def _run_workload(strategy: WriteStrategy) -> dict:
    obs = Observability.create()
    cluster = Cluster(k=K, n=N, block_size=BS, seed=5, observability=obs)
    client = cluster.protocol_client("wire", ClientConfig(strategy=strategy))
    for i in range(WRITES):
        value = (np.arange(BS, dtype=np.uint64) * (i + 3)) % 256
        client.write(i % STRIPES, i % K, value.astype(np.uint8))
    for i in range(WRITES):
        client.read(i % STRIPES, i % K)
    client._start_recovery(0)
    GcManager(client).run_once()
    Monitor(client).sweep(range(STRIPES))
    Scrubber(client, repair=False).scrub(range(STRIPES))
    return obs.registry.snapshot()


def bench_wire_costs():
    """Per-kind wire accounting must match the cost model exactly."""
    strategy_names = {
        WriteStrategy.PARALLEL: "parallel",
        WriteStrategy.SERIAL: "serial",
        WriteStrategy.BROADCAST: "broadcast",
    }
    results = {}
    for strategy, name in strategy_names.items():
        snapshot = _run_workload(strategy)
        model = CostModel(n=N, k=K, block_size=BS, strategy=name)
        report = CostAuditor(model, fault_free=True).audit(snapshot)
        results[name] = (report, measured_kinds(snapshot))
    parallel_report, parallel_wire = results["parallel"]
    print_table(
        f"Wire accounting vs cost model ({K}-of-{N}, {WRITES} writes, "
        "parallel adds)",
        ["kind", "msgs", "pred", "rounds", "bytes"],
        [
            [
                v.kind,
                v.measured_messages,
                "-" if v.predicted_messages is None else v.predicted_messages,
                v.measured_rounds,
                v.bytes_total,
            ]
            for v in parallel_report.verdicts
        ],
    )
    for name, (report, wire) in results.items():
        record(
            f"wire_costs_{name}",
            passed=report.passed,
            write_messages=wire["write"].messages,
            write_rounds=wire["write"].rounds,
            write_bytes=wire["write"].bytes_total,
            recovery_messages=sum(
                wire[k].messages
                for k in ("recovery_phase1", "recovery_phase2",
                          "recovery_phase3")
                if k in wire
            ),
            total_excess=report.total_excess,
        )
        # Exact conformance: the paper's failure-free columns, measured.
        assert report.passed, f"{name}:\n{report.summary()}"
        # Attribution is total: nothing fell into the "other" bucket.
        other = wire.get("other")
        assert other is None or other.messages == 0, (
            f"{name}: unattributed wire traffic: {other}"
        )
