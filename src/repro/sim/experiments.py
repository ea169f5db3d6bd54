"""Turn-key simulation experiments — the entry point benches call.

:func:`run_throughput` reproduces the methodology behind Figs. 9a-9c
and 10a-10d: build a system, launch a closed-loop workload, and report
aggregate read/write throughput after warmup, plus resource
utilizations (to verify *why* curves flatten — client NIC vs storage
saturation, §6.2/§6.6).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.calibration import CostModel
from repro.sim.system import SimSystem
from repro.sim.workload import WorkloadSpec, launch


@dataclass(frozen=True)
class ThroughputResult:
    """Outcome of one simulated run."""

    spec: WorkloadSpec
    num_clients: int
    k: int
    n: int
    write_mbps: float
    read_mbps: float
    write_ops: int
    read_ops: int
    mean_write_latency: float
    mean_read_latency: float
    max_client_nic_utilization: float
    max_storage_nic_utilization: float


def run_throughput(
    num_clients: int,
    k: int,
    n: int,
    spec: WorkloadSpec | None = None,
    costs: CostModel | None = None,
    rotate: bool = True,
) -> ThroughputResult:
    """Run one closed-loop experiment and report aggregate throughput."""
    spec = spec or WorkloadSpec()
    costs = costs or CostModel()
    system = SimSystem.build(num_clients, k, n, costs=costs, rotate=rotate)
    metrics = launch(system, spec)
    system.sim.run(until=spec.duration)
    window = (spec.warmup, spec.duration)
    block = costs.block_size
    report = system.utilization_report()
    client_nics = [
        report[node.nic.name] for node in system.clients
    ] or [0.0]
    storage_nics = [
        report[node.nic.name] for node in system.storage
    ] or [0.0]
    return ThroughputResult(
        spec=spec,
        num_clients=num_clients,
        k=k,
        n=n,
        write_mbps=metrics.throughput_mbps("write", *window, block),
        read_mbps=metrics.throughput_mbps("read", *window, block),
        write_ops=len(metrics.write_times),
        read_ops=len(metrics.read_times),
        mean_write_latency=metrics.mean_latency("write"),
        mean_read_latency=metrics.mean_latency("read"),
        max_client_nic_utilization=max(client_nics),
        max_storage_nic_utilization=max(storage_nics),
    )


def sweep(
    variable: str,
    values: list,
    base: dict,
    spec_overrides: dict | None = None,
) -> list[ThroughputResult]:
    """Sweep one run parameter; ``variable`` may name a run_throughput
    argument (num_clients, k, n) or a WorkloadSpec field."""
    results = []
    run_keys = {"num_clients", "k", "n"}
    for value in values:
        kwargs = dict(base)
        overrides = dict(spec_overrides or {})
        if variable in run_keys:
            kwargs[variable] = value
        else:
            overrides[variable] = value
        spec = WorkloadSpec(**overrides)
        results.append(run_throughput(spec=spec, **kwargs))
    return results
