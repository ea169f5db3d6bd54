"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``        end-to-end tour on a live cluster (write, crash, recover)
``cost-table``  the Fig. 1 analytic cost table for a k-of-n code
``resiliency``  Section 4 tables: failures tolerated vs redundancy
``simulate``    one closed-loop throughput experiment on the simulator
``calibrate``   measure this machine's erasure-code kernel costs
``chaos-soak``  seeded fault-injection soak: workload under drops,
                delays, duplication and a gray node, then consistency
                + parity audit (failures reproduce from the seed)
``restart-soak`` crash-restart soak: kills and restarts a durable node
                mid-workload under combined network + disk faults, and
                proves restart recovery moves strictly fewer bytes
                than fail-remap rebuild
``corruption-soak`` end-to-end integrity soak: seeded wire bit flips
                plus silent media damage at crash/restart, verified
                reads + sampling audits detect every injection, and the
                history proves no corrupt byte was ever served
``gray-soak``   gray-node soak: the same seeded read workload against
                the same stalled-node fault plan, hedged vs un-hedged,
                proving hedged reads cut p99 with reproducible digests
                (plus an admission-control overload burst)
``elastic-soak`` elastic-cluster soak: grow the pool in waves,
                rebalance stripes to each new placement generation
                under live traffic and chaos (crashing the rebalancer
                mid-migration), decommission original members, and
                check the full quiescence invariant pack plus the
                placement/bytes-moved invariants; also proves graceful
                degradation of a migration crashed before its commit
``directory-soak`` replicated-directory soak: run the metadata plane's
                fate table (minority crash, replica restart, partition,
                full quorum loss, heal) under chaos while client
                traffic, a storage remap and a rebalance pass keep
                running; proves quorum loss degrades to cached
                bindings with remaps refused (never split-brain) and
                sweeps every directory.* crash point
``explore``     deterministic crash-point exploration: kill a client at
                every named protocol step x companion fault, drive the
                survivors to quiescence, and check the invariant pack;
                failures are delta-debugged to minimal replayable
                JSON schedules
``replay-schedule`` re-execute a saved (minimized) crash schedule
                bit-for-bit and compare its verdict against the one
                recorded at save time
``cost-report`` paper-cost-model conformance audit: drive a seeded
                fault-free workload (writes, reads, a recovery, GC,
                monitor, scrub), reconcile the measured per-op wire
                traffic against the Fig. 1 predictions exactly, and
                show the critical path of the last write; or audit a
                saved snapshot (bounded mode) with ``--from``
``metrics``     run a small instrumented workload and print the metrics
                registry (Prometheus exposition or JSON), or re-render
                and validate a saved snapshot with ``--from``
``trace-dump``  render causal span trees, either from a saved
                flight-recorder file or from a freshly traced demo write
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, replace

from repro.analysis.costmodel import CostAuditor, CostModel
from repro.analysis.resiliency import resiliency_profile
from repro.baselines.costs import format_cost_table
from repro.chaos.corruption_soak import (
    CorruptionSoakConfig,
    run_corruption_soak,
)
from repro.chaos.directory_soak import (
    DirectorySoakConfig,
    run_directory_point_sweep,
    run_directory_soak,
)
from repro.chaos.directory_soak import smoke_config as directory_smoke_config
from repro.chaos.elastic_soak import (
    ElasticSoakConfig,
    prove_graceful_degradation,
    run_elastic_soak,
)
from repro.chaos.elastic_soak import smoke_config as elastic_smoke_config
from repro.chaos.explorer import (
    ExplorerConfig,
    load_schedule,
    run_explorer,
    run_schedule,
)
from repro.chaos.gray_soak import GraySoakConfig, run_gray_soak
from repro.chaos.restart_soak import RestartSoakConfig, run_restart_soak
from repro.chaos.soak import SoakConfig, run_soak
from repro.client.config import WriteStrategy
from repro.core.cluster import Cluster
from repro.obs import (
    Observability,
    build_span_tree,
    critical_path,
    flight_events,
    load_flight,
    load_snapshot,
    parse_exposition,
    render_span_tree,
    snapshot_to_json,
    to_prometheus,
    trace_ids,
)
from repro.sim.calibration import measure_costs
from repro.sim.experiments import run_throughput
from repro.sim.workload import WorkloadSpec

#: Shared exit-code contract for every soak/explore/replay command,
#: shown in each command's ``--help``.
EXIT_CODES_EPILOG = (
    "exit codes: 0 = run passed every invariant; 1 = the run completed "
    "but an invariant, audit or verdict failed (reproduce with the "
    "printed --seed); 2 = invalid input (unreadable file, malformed "
    "snapshot or schedule) — nothing was run."
)


def _ensure_parent(path: str) -> None:
    """Create the missing parent directories of an output file."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)


def _ensure_dir(path: str | None) -> None:
    """Create a missing output directory (artifact/flight dirs)."""
    if path:
        os.makedirs(path, exist_ok=True)


def _write_metrics(path: str, snapshot: dict, quiet: bool = False) -> None:
    _ensure_parent(path)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(snapshot_to_json(snapshot) + "\n")
    if not quiet:
        print(f"  metrics snapshot: {path}")


def cmd_demo(args: argparse.Namespace) -> int:
    cluster = Cluster(k=args.k, n=args.n, block_size=args.block_size)
    volume = cluster.client("cli")
    print(f"deployed {args.k}-of-{args.n}, block size {args.block_size}")
    volume.write_block(0, b"written via the repro CLI")
    print("wrote block 0; reading:", volume.read_block(0)[:25])
    crashed = cluster.crash_storage(0)
    print(f"crashed {crashed}; reading through the failure...")
    print("read block 0:", volume.read_block(0)[:25])
    print("stripe consistent:", cluster.stripe_consistent(0))
    stats = volume.protocol.stats
    print(f"recoveries: {stats.recoveries_completed}, remaps: {stats.remaps}")
    return 0


def cmd_cost_table(args: argparse.Namespace) -> int:
    print(format_cost_table(args.n, args.k, args.block_size))
    return 0


def cmd_resiliency(args: argparse.Namespace) -> int:
    print("n-k  serial adds                parallel adds")
    for p in range(1, args.max_p + 1):
        k = max(2, p)
        serial = ", ".join(str(e) for e in resiliency_profile(k + p, k, "serial"))
        parallel = ", ".join(
            str(e) for e in resiliency_profile(k + p, k, "parallel")
        )
        print(f"{p:<4} {serial:<26} {parallel}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = WorkloadSpec(
        protocol=args.protocol,
        read_fraction=args.reads,
        outstanding=args.outstanding,
        duration=args.duration,
        warmup=args.duration / 5,
        stripes=args.stripes,
        strategy=WriteStrategy(args.strategy),
        sequential=args.sequential,
        seed=args.seed,
    )
    result = run_throughput(args.clients, args.k, args.n, spec)
    print(f"protocol={args.protocol} code={args.k}-of-{args.n} "
          f"clients={args.clients} outstanding={args.outstanding}")
    print(f"  write throughput: {result.write_mbps:9.1f} MB/s "
          f"({result.write_ops} ops, mean latency "
          f"{result.mean_write_latency * 1e3:.3f} ms)")
    print(f"  read  throughput: {result.read_mbps:9.1f} MB/s "
          f"({result.read_ops} ops, mean latency "
          f"{result.mean_read_latency * 1e3:.3f} ms)")
    print(f"  max client NIC util: {result.max_client_nic_utilization:.2f}  "
          f"max storage NIC util: {result.max_storage_nic_utilization:.2f}")
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    costs = measure_costs(block_size=args.block_size, repeats=args.repeats)
    print(f"calibrated kernel costs for {args.block_size}-byte blocks:")
    print(f"  Delta (client alpha*(v-w)): {costs.delta_cpu * 1e6:8.2f} us")
    print(f"  Add (node GF add):          {costs.add_cpu * 1e6:8.2f} us")
    print(f"  full encode per block:      {costs.encode_cpu_per_block * 1e6:8.2f} us")
    print(f"  full decode per block:      {costs.decode_cpu_per_block * 1e6:8.2f} us")
    return 0


def _rescale_restart_windows(config: RestartSoakConfig) -> RestartSoakConfig:
    """Keep the crash windows proportional when the op count shrinks."""
    defaults = RestartSoakConfig()
    scale = config.ops / defaults.ops
    return replace(
        config,
        window_a=tuple(int(i * scale) for i in defaults.window_a),
        window_b=tuple(int(i * scale) for i in defaults.window_b),
    )


@dataclass(frozen=True)
class Soak:
    """One soak sub-command.  Every soak takes the shared flag block
    (``--seed --smoke --no-observe --metrics-out --flight-dir``); the
    rest of its command line is ``flags``: (flag, config field, type,
    help) rows, where a flag left unset keeps the (smoke or full)
    config's own value and type ``False`` marks a switch that turns the
    field off."""

    name: str
    help: str
    config: type
    run: Callable
    #: seed -> the CI-sized config ``--smoke`` selects.
    smoke: Callable
    flags: tuple[tuple, ...]
    #: config -> config, for fields derived from flag-set ones.
    derive: Callable | None = None
    #: seed -> a side proof (``summary()``, ``passed``) printed after the
    #: report and demonstrated, not asserted, on every run.
    proof: Callable | None = None

    @property
    def seed(self) -> int:
        return self.config().seed


_BLOCKS = ("--blocks", "blocks", int, "logical blocks in the workload namespace")
_GEOMETRY = (
    ("--k", "k", int, None),
    ("--n", "n", int, None),
    ("--block-size", "block_size", int, None),
    _BLOCKS,
)
_MIXED = (
    ("--clients", "clients", int, None),
    *_GEOMETRY,
    ("--reads", "read_fraction", float, "fraction of ops that are reads"),
)

SOAKS: tuple[Soak, ...] = (
    Soak(
        "chaos-soak",
        "seeded fault-injection soak + consistency audit",
        SoakConfig,
        run_soak,
        smoke=lambda seed: SoakConfig(seed=seed, ops=40),
        flags=(
            ("--ops", "ops", int,
             "workload length (default 200; 40 with --smoke)"),
            *_MIXED,
            ("--rpc-timeout", "rpc_timeout", float, None),
            ("--drop", "drop", float, None),
            ("--dup", "dup", float, None),
            ("--gray-stall", "gray_stall", float, None),
        ),
    ),
    Soak(
        "restart-soak",
        "crash-restart soak: durable-node recovery vs fail-remap",
        RestartSoakConfig,
        run_restart_soak,
        smoke=lambda seed: RestartSoakConfig(seed=seed, ops=120),
        flags=(
            ("--ops", "ops", int,
             "workload length per policy run (default 160; 120 with "
             "--smoke)"),
            ("--torn", "torn", float,
             "per-frame torn-write probability at crash"),
            ("--lost", "lost", float,
             "per-frame lost-write probability at crash"),
            ("--drop", "drop", float, None),
            ("--dup", "dup", float, None),
        ),
        derive=_rescale_restart_windows,
    ),
    Soak(
        "corruption-soak",
        "end-to-end integrity soak: wire + media corruption vs verified "
        "reads, sampling audits and parity scrubs",
        CorruptionSoakConfig,
        run_corruption_soak,
        smoke=lambda seed: CorruptionSoakConfig(seed=seed, ops=140),
        flags=(
            ("--ops", "ops", int,
             "workload length (default 400; 140 with --smoke)"),
            *_MIXED,
            ("--corrupt", "corrupt", float,
             "per-read-response wire bit-flip probability"),
            ("--flip-every", "flip_every", int,
             "ops between forced silent media flips (crash/restart "
             "cycles; 0 disables)"),
            ("--audit-every", "audit_every", int,
             "ops between sampling-audit sweeps (0 disables)"),
            ("--audit-samples", "audit_samples", int,
             "fingerprint probes per audit sweep"),
        ),
    ),
    Soak(
        "gray-soak",
        "gray-node soak: hedged vs un-hedged read tail latency",
        GraySoakConfig,
        run_gray_soak,
        smoke=lambda seed: GraySoakConfig(seed=seed, reads=60),
        flags=(
            ("--reads", "reads", int,
             "reads per phase run (default 160; 60 with --smoke)"),
            *_GEOMETRY,
            ("--stall", "stall", float,
             "gray node's read-path stall, seconds"),
            ("--hedge-delay", "hedge_delay", float,
             "fixed hedging delay, seconds"),
            ("--rpc-timeout", "rpc_timeout", float, None),
            ("--no-overload", "overload", False,
             "skip the admission-control overload burst"),
        ),
    ),
    Soak(
        "elastic-soak",
        "elastic-cluster soak: grow, rebalance and decommission under "
        "chaos with mid-migration crash points",
        ElasticSoakConfig,
        run_elastic_soak,
        smoke=elastic_smoke_config,
        flags=(
            ("--pool-start", "pool_start", int,
             "initial pool size (default 8; 6 with --smoke)"),
            ("--pool-peak", "pool_peak", int,
             "pool size after both grow waves (default 24; 10 with "
             "--smoke)"),
            ("--decommission", "decommission", int,
             "original members to retire at the end (default 4; 2 with "
             "--smoke)"),
            _BLOCKS,
            ("--ops-per-wave", "ops_per_wave", int,
             "workload ops before each membership wave"),
            ("--no-crash", "crash_rebalancer", False,
             "run the waves without arming the rebalance.* crash points"),
        ),
        # Crash a migration before its commit and show the stripe still
        # serves at the old placement.
        proof=prove_graceful_degradation,
    ),
    Soak(
        "directory-soak",
        "replicated-directory soak: metadata-plane fate table (minority "
        "crash, restart, partition, quorum loss, heal) under chaos, plus "
        "the directory.* crash-point sweep",
        DirectorySoakConfig,
        run_directory_soak,
        smoke=directory_smoke_config,
        flags=(
            ("--pool", "pool", int, "storage pool size (default 8, smoke 6)"),
            ("--directory-replicas", "directory_replicas", int,
             "directory replica count, 3..5 (default 3)"),
            _BLOCKS,
            ("--ops-per-phase", "ops_per_phase", int,
             "workload ops between fault phases"),
        ),
        # A remap proposer dies at each directory.* crash window, and the
        # next proposer must converge on the same single decision (the
        # no-split-brain construction).
        proof=run_directory_point_sweep,
    ),
)


def soak_readme_lines() -> list[str]:
    """The soak lines of the README's command list (kept in step by
    ``tests/chaos/test_harness.py``)."""
    return [
        f"python -m repro {soak.name} --seed {soak.seed} --smoke"
        for soak in SOAKS
    ]


def cmd_soak(args: argparse.Namespace) -> int:
    soak: Soak = args.soak
    base = soak.smoke(args.seed) if args.smoke else soak.config(seed=args.seed)
    overrides = {
        field: getattr(args, field)
        for _, field, _, _ in soak.flags
        if getattr(args, field) is not None
    }
    config = replace(
        base,
        **overrides,
        observe=not args.no_observe,
        flight_dir=args.flight_dir,
    )
    if soak.derive is not None:
        config = soak.derive(config)
    if hasattr(config, "validate"):
        try:
            config.validate()
        except ValueError as exc:
            print(f"invalid {soak.name} configuration: {exc}", file=sys.stderr)
            return 2
    _ensure_dir(args.flight_dir)
    report = soak.run(config)
    print(report.summary())
    proof = soak.proof(args.seed) if soak.proof is not None else None
    if proof is not None:
        print(proof.summary())
    if args.metrics_out and report.metrics:
        _write_metrics(args.metrics_out, report.metrics)
    return 0 if report.passed and (proof is None or proof.passed) else 1


def cmd_explore(args: argparse.Namespace) -> int:
    if args.schedules is not None:
        schedules = args.schedules
    else:
        schedules = 4 if args.smoke else 12
    config = ExplorerConfig(
        k=args.k,
        n=args.n,
        block_size=args.block_size,
        seed=args.seed,
        schedules=schedules,
        max_depth=args.depth,
        exhaustive=not args.no_exhaustive,
        inject_regression=args.inject_regression,
        artifact_dir=args.artifact_dir,
    )
    _ensure_dir(args.artifact_dir)
    obs = None if args.no_observe else Observability.create()
    report = run_explorer(config, obs=obs)
    print(report.summary())
    if args.metrics_out and obs is not None:
        _write_metrics(args.metrics_out, obs.registry.snapshot())
    return 0 if report.passed else 1


def cmd_replay_schedule(args: argparse.Namespace) -> int:
    try:
        config, schedule, expect = load_schedule(args.schedule)
    except (OSError, ValueError, KeyError) as exc:
        print(f"invalid schedule file: {exc}", file=sys.stderr)
        return 2
    obs = None if args.no_observe else Observability.create()
    outcome = run_schedule(config, schedule, obs=obs)
    print(f"schedule: {schedule.key()}")
    print(f"result: {outcome.result}")
    for violation in outcome.violations:
        print(f"  VIOLATION: {violation}")
    if expect is not None:
        verdict = outcome.verdict()
        if verdict == expect:
            print("verdict matches the one recorded at save time")
        else:
            print(f"VERDICT MISMATCH: expected {expect}, got {verdict}")
            return 1
        return 0
    return 0 if not outcome.failed else 1


def _demo_observed_workload(writes: int = 4) -> Observability:
    """A small fully-instrumented workload: write/read a few blocks,
    ride through one storage crash, and GC — enough to light up every
    metric family and produce complete write span trees."""
    obs = Observability.create()
    cluster = Cluster(k=2, n=4, block_size=64, observability=obs)
    volume = cluster.client("obs-demo")
    for block in range(writes):
        volume.write_block(block, f"obs demo block {block}".encode())
    cluster.crash_storage(0)
    for block in range(writes):
        volume.read_block(block)
    volume.collect_garbage()
    return obs


def _validate_snapshot(snapshot: dict) -> str:
    """Render + parse the exposition; require live RPC counters.

    Returns the exposition text; raises ``ValueError`` when the
    snapshot is malformed or records no RPC traffic (the CI check for
    artifacts captured by the soak jobs).
    """
    text = to_prometheus(snapshot)
    series = parse_exposition(text)
    rpc_total = sum(
        value
        for name, value in series.items()
        if name.startswith("rpc_calls_total")
    )
    if rpc_total <= 0:
        raise ValueError("snapshot records no rpc_calls_total traffic")
    return text


def cmd_metrics(args: argparse.Namespace) -> int:
    if args.from_file:
        try:
            snapshot = load_snapshot(args.from_file)
            exposition = _validate_snapshot(snapshot)
        except (OSError, ValueError) as exc:
            print(f"invalid metrics snapshot: {exc}", file=sys.stderr)
            return 2
    else:
        snapshot = _demo_observed_workload().registry.snapshot()
        exposition = _validate_snapshot(snapshot)
    if args.out:
        _ensure_parent(args.out)
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(snapshot_to_json(snapshot) + "\n")
        print(f"wrote metrics snapshot: {args.out}")
    if args.json:
        print(snapshot_to_json(snapshot))
    else:
        print(exposition, end="")
    return 0


def cmd_trace_dump(args: argparse.Namespace) -> int:
    if args.flight:
        try:
            flight = load_flight(args.flight)
        except (OSError, ValueError) as exc:
            print(f"invalid flight recording: {exc}", file=sys.stderr)
            return 2
        events = flight_events(flight)
        print(
            f"flight recording: reason={flight['reason']!r} "
            f"events={len(events)} "
            f"dropped={flight.get('dropped_trace_events', 0)}"
        )
    else:
        obs = _demo_observed_workload(writes=2)
        events = obs.tracer.events()
        print(f"demo workload: {len(events)} trace events")
    ids = trace_ids(events)
    if args.trace:
        ids = [t for t in ids if t == args.trace]
        if not ids:
            print(f"trace id {args.trace!r} not found", file=sys.stderr)
            return 1
    elif args.limit and len(ids) > args.limit:
        print(f"({len(ids)} traces; showing last {args.limit}, "
              f"use --trace ID or --limit 0 for more)")
        ids = ids[-args.limit:]
    for trace_id in ids:
        tree = build_span_tree(events, trace_id)
        if tree is not None:
            print(render_span_tree(tree))
    return 0


def _cost_report_workload(
    k: int, n: int, block_size: int, writes: int, seed: int, strategy: str,
    directory_replicas: int = 3,
) -> Observability:
    """A seeded, strictly fault-free workload that lights up every op
    kind the cost model predicts: writes (swap + adds), reads, one
    recovery on a healthy stripe (all three phases), a GC round, a
    monitor sweep, and a parity scrub.  No crash, no chaos — the
    measured wire traffic must equal the paper's failure-free columns.
    With ``directory_replicas`` > 0 all slot bindings ride the
    replicated quorum directory, so the ``"directory"`` kind is also
    exercised and audited exactly.
    """
    import numpy as np

    from repro.client.config import ClientConfig
    from repro.client.gc import GcManager
    from repro.client.monitor import Monitor
    from repro.client.scrub import Scrubber

    obs = Observability.create()
    cluster = Cluster(
        k=k, n=n, block_size=block_size, seed=seed, observability=obs,
        directory_replicas=directory_replicas or None,
    )
    client = cluster.protocol_client(
        "cost", ClientConfig(strategy=WriteStrategy(strategy))
    )
    stripes = max(1, min(3, writes))
    for i in range(writes):
        value = (np.arange(block_size, dtype=np.uint64) * (i + 1) + seed) % 256
        client.write(i % stripes, i % k, value.astype(np.uint8))
    for i in range(writes):
        client.read(i % stripes, i % k)
    client._start_recovery(0)
    GcManager(client).run_once()
    Monitor(client).sweep(range(stripes))
    Scrubber(client, repair=False).scrub(range(stripes))
    return obs


def _write_critical_path(events: list) -> str | None:
    """Longest-path rendering for the last write trace, if any."""
    write_ids = [t for t in trace_ids(events) if ":w" in t]
    if not write_ids:
        return None
    tree = build_span_tree(events, write_ids[-1])
    if tree is None:
        return None
    path = critical_path(tree)
    return (
        f"critical path of write {write_ids[-1]} "
        f"({path.duration * 1000:.3f}ms, dominant leg: "
        f"{path.dominant.kind}):\n" + path.describe()
    )


def cmd_cost_report(args: argparse.Namespace) -> int:
    if args.from_file:
        try:
            snapshot = load_snapshot(args.from_file)
        except (OSError, ValueError) as exc:
            print(f"invalid metrics snapshot: {exc}", file=sys.stderr)
            return 2
        obs = None
        fault_free = args.exact
    else:
        try:
            obs = _cost_report_workload(
                args.k, args.n, args.block_size, args.writes, args.seed,
                args.strategy, args.directory_replicas,
            )
        except ValueError as exc:
            print(f"invalid cost-report parameters: {exc}", file=sys.stderr)
            return 2
        snapshot = obs.registry.snapshot()
        fault_free = True
    model = CostModel(
        n=args.n, k=args.k, block_size=args.block_size,
        strategy=args.strategy,
    )
    report = CostAuditor(model, fault_free=fault_free).audit(snapshot)
    path_text = _write_critical_path(obs.tracer.events()) if obs else None
    if args.out:
        # Keep --json stdout machine-parseable: the snapshot note would
        # otherwise precede the payload.
        _write_metrics(args.out, snapshot, quiet=args.json)
    if args.json:
        import json as _json

        payload = report.to_json()
        payload["geometry"] = {
            "k": args.k, "n": args.n, "block_size": args.block_size,
            "strategy": args.strategy, "seed": args.seed,
        }
        if path_text:
            payload["critical_path"] = path_text
        print(_json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(
            f"cost report: {args.k}-of-{args.n}, block size "
            f"{args.block_size}, strategy {args.strategy}"
            + ("" if args.from_file else f", seed {args.seed}")
        )
        print(report.summary())
        if path_text:
            print(path_text)
    return 0 if report.passed else 1


def _add_observe_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--no-observe", action="store_true",
        help="run without the metrics registry / tracer attached",
    )
    parser.add_argument(
        "--metrics-out", metavar="FILE", default=None,
        help="write the final metrics snapshot as JSON "
             "(readable back via 'repro metrics --from FILE')",
    )
    parser.add_argument(
        "--flight-dir", metavar="DIR", default=None,
        help="directory for flight-recorder dumps on failure/degradation",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Erasure-coded distributed storage (DSN 2005 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="live cluster walkthrough")
    demo.add_argument("--k", type=int, default=3)
    demo.add_argument("--n", type=int, default=5)
    demo.add_argument("--block-size", type=int, default=1024)
    demo.set_defaults(func=cmd_demo)

    table = sub.add_parser("cost-table", help="Fig. 1 analytic costs")
    table.add_argument("--k", type=int, default=3)
    table.add_argument("--n", type=int, default=5)
    table.add_argument("--block-size", type=int, default=1024)
    table.set_defaults(func=cmd_cost_table)

    res = sub.add_parser("resiliency", help="Section 4 failure tables")
    res.add_argument("--max-p", type=int, default=8)
    res.set_defaults(func=cmd_resiliency)

    simulate = sub.add_parser("simulate", help="closed-loop throughput run")
    simulate.add_argument("--clients", type=int, default=2)
    simulate.add_argument("--k", type=int, default=4)
    simulate.add_argument("--n", type=int, default=6)
    simulate.add_argument("--outstanding", type=int, default=16)
    simulate.add_argument("--duration", type=float, default=0.25)
    simulate.add_argument("--stripes", type=int, default=256)
    simulate.add_argument("--reads", type=float, default=0.0)
    simulate.add_argument(
        "--protocol", choices=["ajx", "fab", "gwgr"], default="ajx"
    )
    simulate.add_argument(
        "--strategy",
        choices=[s.value for s in WriteStrategy],
        default=WriteStrategy.PARALLEL.value,
    )
    simulate.add_argument("--sequential", action="store_true")
    simulate.add_argument("--seed", type=int, default=1)
    simulate.set_defaults(func=cmd_simulate)

    for soak in SOAKS:
        sp = sub.add_parser(soak.name, help=soak.help, epilog=EXIT_CODES_EPILOG)
        sp.add_argument("--seed", type=int, default=soak.seed)
        sp.add_argument("--smoke", action="store_true",
                        help="short CI-sized run")
        for flag, field, kind, text in soak.flags:
            if kind is False:
                sp.add_argument(flag, dest=field, action="store_const",
                                const=False, default=None, help=text)
            else:
                sp.add_argument(flag, dest=field, type=kind, default=None,
                                help=text)
        _add_observe_args(sp)
        sp.set_defaults(func=cmd_soak, soak=soak)

    explore = sub.add_parser(
        "explore",
        help="crash-point schedule exploration + quiescence invariants",
        epilog=EXIT_CODES_EPILOG,
    )
    explore.add_argument("--seed", type=int, default=0)
    explore.add_argument("--schedules", type=int, default=None,
                         help="random multi-point schedules on top of the "
                              "exhaustive sweep (default 12; 4 with --smoke)")
    explore.add_argument("--smoke", action="store_true",
                         help="short CI-sized run")
    explore.add_argument("--depth", type=int, default=3,
                         help="max crash points per random schedule")
    explore.add_argument("--k", type=int, default=2)
    explore.add_argument("--n", type=int, default=4)
    explore.add_argument("--block-size", type=int, default=16)
    explore.add_argument("--no-exhaustive", action="store_true",
                         help="skip the single-point point x companion sweep")
    explore.add_argument("--inject-regression", action="store_true",
                         help="re-introduce the dropped-setlock-release bug "
                              "(the explorer must catch and minimize it)")
    explore.add_argument("--artifact-dir", metavar="DIR", default=None,
                         help="directory for minimized-schedule JSON and "
                              "flight dumps on failure")
    explore.add_argument("--no-observe", action="store_true",
                         help="run without the metrics registry / tracer")
    explore.add_argument("--metrics-out", metavar="FILE", default=None,
                         help="write the final metrics snapshot as JSON "
                              "(readable back via 'repro metrics --from FILE')")
    explore.set_defaults(func=cmd_explore)

    replay = sub.add_parser(
        "replay-schedule",
        help="re-execute a saved crash schedule and compare verdicts",
        epilog=EXIT_CODES_EPILOG,
    )
    replay.add_argument("schedule", metavar="FILE",
                        help="schedule JSON written by 'repro explore' "
                             "(or repro.chaos.save_schedule)")
    replay.add_argument("--no-observe", action="store_true",
                        help="run without the metrics registry attached")
    replay.set_defaults(func=cmd_replay_schedule)

    metrics = sub.add_parser(
        "metrics",
        help="print a metrics registry (demo workload or saved snapshot)",
        epilog=EXIT_CODES_EPILOG,
    )
    metrics.add_argument(
        "--from", dest="from_file", metavar="FILE", default=None,
        help="re-render (and validate) a saved JSON snapshot instead of "
             "running the demo workload",
    )
    metrics.add_argument("--json", action="store_true",
                         help="print the JSON snapshot, not exposition text")
    metrics.add_argument("--out", metavar="FILE", default=None,
                         help="also write the JSON snapshot to FILE")
    metrics.set_defaults(func=cmd_metrics)

    cost_report = sub.add_parser(
        "cost-report",
        help="paper-cost-model conformance: measured vs predicted wire "
             "traffic per op kind (fault-free workload or saved snapshot)",
        epilog=EXIT_CODES_EPILOG,
    )
    cost_report.add_argument("--k", type=int, default=3)
    cost_report.add_argument("--n", type=int, default=5)
    cost_report.add_argument("--block-size", type=int, default=1024)
    cost_report.add_argument("--writes", type=int, default=6,
                             help="writes (and reads) in the workload")
    cost_report.add_argument("--seed", type=int, default=7)
    cost_report.add_argument(
        "--strategy", choices=["parallel", "serial", "broadcast"],
        default="parallel", help="AJX write variant to audit",
    )
    cost_report.add_argument(
        "--directory-replicas", type=int, default=3,
        help="replicated directory replica count for the workload "
             "(0 = legacy in-process directory, no 'directory' kind)",
    )
    cost_report.add_argument(
        "--from", dest="from_file", metavar="FILE", default=None,
        help="audit a saved metrics snapshot (bounded mode) instead of "
             "running the fault-free workload; geometry flags must match "
             "the run that produced it",
    )
    cost_report.add_argument(
        "--exact", action="store_true",
        help="with --from: demand exact fault-free conformance",
    )
    cost_report.add_argument("--json", action="store_true",
                             help="print the audit as JSON")
    cost_report.add_argument("--out", metavar="FILE", default=None,
                             help="also write the metrics snapshot to FILE")
    cost_report.set_defaults(func=cmd_cost_report)

    trace = sub.add_parser(
        "trace-dump",
        help="render causal span trees from trace events",
        epilog=EXIT_CODES_EPILOG,
    )
    trace.add_argument(
        "--flight", metavar="FILE", default=None,
        help="read events from a flight-recorder dump instead of "
             "running a traced demo write",
    )
    trace.add_argument("--trace", metavar="ID", default=None,
                       help="render only this trace id")
    trace.add_argument("--limit", type=int, default=5,
                       help="max traces to render (0 = all; default 5)")
    trace.set_defaults(func=cmd_trace_dump)

    calibrate = sub.add_parser("calibrate", help="measure kernel costs")
    calibrate.add_argument("--block-size", type=int, default=1024)
    calibrate.add_argument("--repeats", type=int, default=200)
    calibrate.set_defaults(func=cmd_calibrate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
