"""Builds a workload's cluster, drives the closed-loop load, verifies
the outputs and turns samples into the named metrics.

Load is closed-loop: every client blocks on each reply, as the paper's
clients do.  A measured window lasts ``--seconds``; the self-tests and
the traced pass's counted prefix run a fixed number of *rounds*
instead, so their message counts repeat exactly.
"""

from __future__ import annotations

import gc
import math
import resource
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro import Cluster
from repro.client.config import ClientConfig
from repro.errors import ReproError
from repro.net.tcp import TcpTransport
from repro.obs import Observability
from repro.storage.store import MemoryStore
from repro.storage.wal import WalStore

from bench import trace as tracing
from bench.workloads import PRELOAD, ROUND_OPS, MixedStream, Payloads, Workload

WARMUP_SECONDS = 1.5
SETUPS = 3  # setup_s is the median of this many builds + preloads
CALIB_DRIFT = 0.08  # pre/post calibration disagreement that voids a window
MAX_ATTEMPTS = 3
P99_MIN_SAMPLES = 1000
VICTIM_SLOT = 2  # degraded-repair loses this slot every cycle
RESTART_SLOT = 1  # durable-tcp-mixed restarts this slot after the window
#: Rounds in the traced pass's counted prefix (fixed work, so counts of
#: messages, bytes and syncs repeat exactly for one seed).
COUNT_ROUNDS = {"mixed": 4, "sequential": 1, "repair": 1}

_RECOVERY_KINDS = ("recovery_phase1", "recovery_phase2", "recovery_phase3",
                   "recovery_abort")


@dataclass
class Window:
    """What one measured window observed."""

    elapsed: float = 0.0  # timed wall seconds
    #: (start, end) perf_counter seconds of every completed op
    reads: list[tuple[float, float]] = field(default_factory=list)
    writes: list[tuple[float, float]] = field(default_factory=list)
    gc_seconds: float = 0.0
    failed: int = 0

    @property
    def attempted(self) -> int:
        return len(self.reads) + len(self.writes) + self.failed

    def merge(self, other: "Window") -> None:
        self.elapsed = max(self.elapsed, other.elapsed)
        self.reads += other.reads
        self.writes += other.writes
        self.gc_seconds += other.gc_seconds
        self.failed += other.failed


class Session:
    """One built, preloaded cluster plus the bookkeeping that says what
    every block must hold (versions only, never the data)."""

    def __init__(self, spec: Workload, seed: int, *, clients: int | None = None,
                 observability: Observability | None = None):
        self.spec = spec
        self.payloads = Payloads(seed, spec.block_size)
        self.observability = observability
        self.transport = None
        if spec.durable:
            self.transport = TcpTransport()
            self.cluster = Cluster(
                spec.k, spec.n, block_size=spec.block_size,
                transport=self.transport,
                store_factory=lambda slot: WalStore(tag=f"slot{slot}"),
                directory_replicas=3, pool=8, observability=observability,
            )
        else:
            self.cluster = Cluster(
                spec.k, spec.n, block_size=spec.block_size,
                store_factory=lambda slot: MemoryStore(),
                observability=observability,
            )
        config = ClientConfig(degraded_reads=spec.kind == "repair")
        count = spec.clients if clients is None else clients
        self.clients = [
            self.cluster.client(f"bench-{i}", config) for i in range(count)
        ]
        #: versions[c][block]: last write of client c that was acked.
        self.versions: list[dict[int, int]] = [{} for _ in self.clients]
        #: blocks with a failed write: either version may have landed.
        self.uncertain: set[int] = set()
        self.attempted = 0
        self.failed = 0
        self.user_bytes = 0  # through the timed ops, for the byte ratios
        if spec.kind == "mixed":
            self._streams = [MixedStream(spec, seed, i) for i in range(count)]
            self._own_writes = [0] * count  # GC cadence outlives a window
        if spec.kind == "repair":
            #: blocks whose data position lives on the slot that is lost
            self._affected = [
                block for block in range(spec.blocks)
                if self.cluster.slot_of(block // spec.k, block % spec.k)
                == VICTIM_SLOT
            ]
        first = self.clients[0]
        for block in range(spec.blocks):
            first.write_block(block, self.payloads.block(PRELOAD, block, 0))
        first.collect_garbage()
        first.collect_garbage()

    def close(self) -> None:
        if self.transport is not None:
            self.transport.close()

    # -- expected state ---------------------------------------------------

    def expected(self, block: int) -> set[bytes]:
        """Contents ``block`` may hold: each writing client's last
        acked write, or the preload if none wrote it."""
        found = {
            self.payloads.block(index, block, versions[block])
            for index, versions in enumerate(self.versions)
            if block in versions
        }
        return found or {self.payloads.block(PRELOAD, block, 0)}

    def _expected_extent(self, first: int, count: int) -> bytes:
        return b"".join(
            next(iter(self.expected(block)))
            for block in range(first, first + count)
        )

    # -- load loops -------------------------------------------------------

    def window(self, seconds: float | None = None,
               rounds: int | None = None) -> Window:
        """Run load for ``seconds``, or for ``rounds`` fixed rounds."""
        if (seconds is None) == (rounds is None):
            raise ValueError("give exactly one of seconds and rounds")
        span = math.inf if seconds is None else seconds
        limit = math.inf if rounds is None else rounds
        run = getattr(self, f"_{self.spec.kind}")
        out = run(span, limit)
        self.attempted += out.attempted
        self.failed += out.failed
        return out

    def _mixed(self, span: float, rounds: float) -> Window:
        parts = [Window() for _ in self.clients]
        start = time.perf_counter() + 0.005 * (len(self.clients) > 1)
        plan = (start, start + span, rounds * ROUND_OPS)
        others = [
            threading.Thread(target=self._mixed_client,
                             args=(index, *plan, parts[index]),
                             name=f"bench-client-{index}")
            for index in range(1, len(self.clients))
        ]
        for thread in others:
            thread.start()
        # Client 0 runs on the caller's thread: the traced pass has one
        # client and its spans must nest under the caller's.
        self._mixed_client(0, *plan, parts[0])
        for thread in others:
            thread.join()
        out = Window()
        for part in parts:
            out.merge(part)
        self.user_bytes += (
            (len(out.reads) + len(out.writes)) * self.spec.block_size
        )
        return out

    def _mixed_client(self, index: int, start: float, deadline: float,
                      max_ops: float, out: Window) -> None:
        client = self.clients[index]
        stream = self._streams[index]
        versions = self.versions[index]
        payload = self.payloads.block
        gc_every = self.spec.gc_every
        reads, writes = out.reads, out.writes
        perf = time.perf_counter
        done = 0
        while perf() < start:
            pass
        while True:
            kinds, blocks = stream.chunk()
            for is_read, block in zip(kinds, blocks):
                if is_read:
                    t0 = perf()
                    try:
                        client.read_block(block)
                    except ReproError:
                        out.failed += 1
                        t1 = perf()
                    else:
                        t1 = perf()
                        reads.append((t0, t1))
                else:
                    version = versions.get(block, 0) + 1
                    data = payload(index, block, version)
                    t0 = perf()
                    try:
                        client.write_block(block, data)
                    except ReproError:
                        out.failed += 1
                        self.uncertain.add(block)
                        t1 = perf()
                    else:
                        t1 = perf()
                        writes.append((t0, t1))
                        versions[block] = version
                    self._own_writes[index] += 1
                    if self._own_writes[index] % gc_every == 0:
                        client.collect_garbage()
                        g1 = perf()
                        out.gc_seconds += g1 - t1
                        t1 = g1
                done += 1
                if t1 >= deadline or done >= max_ops:
                    out.elapsed = t1 - start
                    return

    def _sequential(self, span: float, rounds: float) -> Window:
        """Cycles of: one pass of full-stripe ``write_bytes`` extents over
        the preloaded region, a GC round, then ``read_passes`` passes of
        ``read_bytes`` extents, each checked against what it must hold.

        Reads and writes alternate every fraction of a second so both
        sample the whole window.  Without the GC round the nodes' tid
        lists grow with every write and write latency never levels off."""
        spec = self.spec
        client = self.clients[0]
        versions = self.versions[0]
        out = Window()
        perf = time.perf_counter
        region = range(spec.stripes)
        plan = ([("write", stripe) for stripe in region] + [("gc", 0)]
                + [("read", stripe) for stripe in region] * spec.read_passes)
        start = perf()
        deadline = start + span
        cycles = 0
        while cycles < rounds:
            for kind, stripe in plan:
                first = stripe * spec.k
                if kind == "write":
                    version = versions.get(first, 0) + 1
                    data = self.payloads.extent(0, first, spec.k, version)
                    t0 = perf()
                    try:
                        client.write_bytes(first, data)
                    except ReproError:
                        out.failed += 1
                        self.uncertain.update(range(first, first + spec.k))
                        t1 = perf()
                    else:
                        t1 = perf()
                        out.writes.append((t0, t1))
                        for block in range(first, first + spec.k):
                            versions[block] = version
                elif kind == "read":
                    t0 = perf()
                    try:
                        data = client.read_bytes(first, spec.extent_bytes)
                    except ReproError:
                        data = None
                    t1 = perf()
                    if data == self._expected_extent(first, spec.k):
                        out.reads.append((t0, t1))
                    else:
                        out.failed += 1
                else:
                    t0 = perf()
                    client.collect_garbage()
                    t1 = perf()
                    out.gc_seconds += t1 - t0
                if t1 >= deadline:
                    break
            else:
                cycles += 1
                continue
            break
        out.elapsed = t1 - start
        self.user_bytes += (
            (len(out.reads) + len(out.writes)) * spec.extent_bytes
        )
        return out

    def _repair(self, span: float, rounds: float) -> Window:
        """Cycles of: lose a node (remap policy), read every block whose
        data lived on it ``read_passes`` times, rebuild every stripe.
        Reads are the window's reads, stripe rebuilds its writes.  A
        cycle cut by the deadline finishes its rebuild untimed, so the
        cluster is always left at full redundancy."""
        spec = self.spec
        client = self.clients[0]
        out = Window()
        perf = time.perf_counter
        deadline = perf() + span
        cycles = 0
        timed = True
        while timed and cycles < rounds:
            self.cluster.crash_storage(VICTIM_SLOT)
            segment = perf()
            for block in self._affected * spec.read_passes:
                t0 = perf()
                try:
                    data = client.read_block(block)
                except ReproError:
                    data = None
                t1 = perf()
                if data in self.expected(block):
                    out.reads.append((t0, t1))
                else:
                    out.failed += 1
                if t1 >= deadline:
                    break
            for stripe in range(spec.stripes):
                t0 = perf()
                if timed and t0 >= deadline:
                    out.elapsed += t0 - segment
                    timed = False
                report = client.rebuild([stripe])
                t1 = perf()
                if report.recovered != [stripe]:
                    out.failed += 1
                elif timed:
                    out.writes.append((t0, t1))
            if timed:
                out.elapsed += perf() - segment
            cycles += 1
        self.user_bytes += (
            len(out.reads) * spec.block_size
            + len(out.writes) * spec.extent_bytes
        )
        return out

    # -- verification -----------------------------------------------------

    def restart_check(self) -> tuple[list[str], float]:
        """Durability: crash one slot keeping its disk, restart it from
        the WAL alone.  Returns (problems, replay milliseconds); the
        read-back of every acked write is :meth:`verify`'s."""
        self.cluster.crash_storage(RESTART_SLOT, policy="restart")
        start = time.perf_counter()
        report = self.cluster.restart_storage(RESTART_SLOT)
        replay_ms = (time.perf_counter() - start) * 1e3
        problems = []
        if not report.clean:
            problems.append(f"WAL replay was dirty: {report.reason}")
        if report.blocks_restored == 0:
            problems.append("WAL replay restored no blocks")
        return problems, replay_ms

    def verify(self, read_block=None) -> list[str]:
        """With the clients quiesced, read every block back and check
        every stripe's code equations.  ``read_block`` exists so the
        self-tests can corrupt the read-back."""
        read_block = read_block or self.clients[0].read_block
        problems = []
        for block in range(self.spec.blocks):
            if block in self.uncertain:
                continue
            if read_block(block) not in self.expected(block):
                problems.append(f"block {block} holds no client's last write")
        for stripe in range(self.spec.stripes):
            if not self.cluster.stripe_consistent(stripe):
                problems.append(f"stripe {stripe} breaks the code equations")
        return problems

    # -- counters for the traced pass -------------------------------------

    def counters(self) -> dict[str, float]:
        """Running totals from the program's own public registry and
        client statistics (traced pass: one client, registry on)."""
        registry = self.observability.registry
        total = registry.sum_counter
        stats = self.clients[0].protocol.stats
        return {
            "ops": self.attempted,
            "user_bytes": self.user_bytes,
            "msgs": total("rpc_messages_total"),
            "wire_bytes": total("rpc_bytes_sent_total")
            + total("rpc_bytes_received_total"),
            "dir_msgs": total("rpc_messages_total", kind="directory"),
            "recovery_msgs": sum(
                total("rpc_messages_total", kind=kind)
                for kind in _RECOVERY_KINDS
            ),
            "recoveries": stats.recoveries_completed,
            "retries": stats.write_attempts - stats.writes
            + stats.order_retries + stats.busy_rejections + stats.rpc_timeouts,
            "wal_appends": total("wal_appends_total"),
            "wal_bytes": total("wal_append_bytes_total")
            + total("wal_compaction_bytes_total"),
            "wal_compactions": total("wal_compactions_total"),
        }


# -- noise guard ----------------------------------------------------------

_TABLE = np.arange(1 << 16, dtype=np.uint32) * 2654435761 % (1 << 16)


def calibrate() -> float:
    """Milliseconds of the fastest of three runs of a fixed ~0.1 s CPU
    kernel (pure-Python arithmetic plus a numpy table gather).  Two
    calls that bracket a window and disagree mean the machine's speed
    shifted while the window ran; the minimum ignores a short hiccup
    inside the kernel itself."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(500_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        index = _TABLE
        for _ in range(400):
            index = _TABLE[index]
        if acc < 0 or index[0] < 0:  # consume both results
            raise AssertionError("unreachable")
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def warm_up(spec: Workload, seed: int) -> None:
    """Untimed: the workload's own op mix on a throwaway miniature
    cluster, so caches, thread pools and lazy imports are hot and the
    CPU is out of its idle state before anything is timed."""
    session = Session(spec.smoke(), seed)
    try:
        session.window(seconds=WARMUP_SECONDS)
    finally:
        session.close()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def guarded_window(session: Session,
                   seconds: float) -> tuple[Window, float, dict]:
    """Bracket the window with the calibration kernel; rerun it (up to
    MAX_ATTEMPTS) while the two calibrations disagree by more than
    CALIB_DRIFT.  Returns the attempt with the least drift, the peak
    RSS after the *first* attempt (a rerun keeps allocating, and how
    many reruns happen is noise) and the guard's own record."""
    best = None
    for attempt in range(1, MAX_ATTEMPTS + 1):
        before = calibrate()
        out = session.window(seconds=seconds)
        if attempt == 1:
            rss = peak_rss_mb()
        after = calibrate()
        drift = abs(after - before) / min(after, before)
        if best is None or drift < best[0]:
            best = (drift, out, [before, after])
        if drift <= CALIB_DRIFT:
            break
    drift, out, calib = best
    return out, rss, {"calib_ms": calib, "calib_drift": drift,
                      "attempts": attempt, "noisy": drift > CALIB_DRIFT}


# -- metrics --------------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


#: The end-to-end metrics steady enough on this sandbox to gate on:
#: BENCHMARK.json lists exactly these.  The others (p99 tails, mean
#: based MB/s) are printed with ``gated: false`` — see bench/README.md.
GATED = ("ops_s", "read_p50_us", "write_p50_us", "peak_rss_mb", "setup_s")


def latencies(samples: list[tuple[float, float]]) -> np.ndarray:
    pairs = np.asarray(samples)
    return pairs[:, 1] - pairs[:, 0]


def end_to_end(spec: Workload, out: Window, clients: int, setup_s: float,
               rss_mb: float) -> tuple[dict[str, dict], dict[str, dict]]:
    """(gated, ungated) end-to-end metrics of one window.

    On ``degraded-repair`` a *read* is a degraded read and a *write* is
    the rebuild of one stripe; on ``large-seq-local`` both are one
    full-stripe extent.  ``*_mb_s`` is user bytes over the time spent
    in ops of that kind (per client, so two clients add up)."""
    reads = latencies(out.reads)
    writes = latencies(out.writes)
    read_bytes = spec.extent_bytes if spec.kind == "sequential" else spec.block_size
    write_bytes = spec.block_size if spec.kind == "mixed" else spec.extent_bytes
    metrics = {
        "ops_s": _metric((len(reads) + len(writes)) / out.elapsed, "1/s"),
        "read_p50_us": _metric(np.percentile(reads, 50) * 1e6, "us"),
        "read_p99_us": _metric(np.percentile(reads, 99) * 1e6, "us"),
        "write_p50_us": _metric(np.percentile(writes, 50) * 1e6, "us"),
        "write_p99_us": _metric(np.percentile(writes, 99) * 1e6, "us"),
        "read_mb_s": _metric(
            len(reads) * read_bytes * clients / reads.sum() / 1e6, "MB/s"),
        "write_mb_s": _metric(
            len(writes) * write_bytes * clients / writes.sum() / 1e6, "MB/s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
        "setup_s": _metric(setup_s, "s"),
    }
    if spec.kind == "repair":  # ISSUE 11's names for the same numbers
        metrics["degraded_read_p50_us"] = metrics["read_p50_us"]
        metrics["degraded_read_p99_us"] = metrics["read_p99_us"]
        metrics["rebuild_stripes_s"] = _metric(
            len(writes) / writes.sum(), "1/s")
    gated = {name: metrics.pop(name) for name in GATED}
    return gated, metrics


def gf_rates(block_size: int) -> tuple[float, float]:
    """MB/s of the addmul and delta kernels at this block size, called
    directly with a general coefficient (the table-gather path).  The
    reference for ``erasure_mb_s``, which can exceed it where many
    coefficients are 0 or 1 and take the kernels' short cuts."""
    from repro.gf import field

    rng = np.random.default_rng(0)
    acc, new, old = (
        rng.integers(0, 256, block_size, dtype=np.uint8) for _ in range(3)
    )
    reps = max(16, (4 << 20) // block_size)

    def rate(kernel) -> float:
        times = []
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(reps):
                kernel()
            times.append(time.perf_counter() - start)
        return reps * block_size / float(np.median(times)) / 1e6

    return (rate(lambda: field.addmul_block(acc, 0x53, new)),
            rate(lambda: field.delta_block(0x53, new, old)))


def per_layer(spec: Workload, spans: list, traced: Window, counted: dict,
              untraced_us: float) -> tuple[dict[str, dict], dict]:
    """Every per-layer metric of BENCHMARK.json, plus the layer and
    span-name tables for the detail report.

    Times come from the traced window's spans, counts from the fixed
    counted prefix (``counted``: registry and client-stat deltas)."""
    layers, names = tracing.by_layer(spans)
    ops = traced.attempted
    total = sum(layers.values())
    erasure_s = layers["erasure"] + layers["gf"]
    kernel_bytes = sum(row["nbytes"] for row in names.values())

    def per_op(*names: str) -> dict:
        return _metric(sum(layers[name] for name in names) / ops * 1e6, "us")

    busy = (latencies(traced.reads).sum() + latencies(traced.writes).sum()
            + traced.gc_seconds)
    traced_us = traced.elapsed / ops * 1e6
    c_ops = counted["ops"]
    c_writes = max(1, counted["writes"])
    lookups = sum(
        row["calls"] for key, row in names.items()
        if row["layer"] == "directory" and key.endswith(".node_id")
    )
    quorum_reads = sum(
        row["calls"] for key, row in names.items()
        if key == "directory:ReplicatedDirectory.lookup"
    )
    wal_writes = max(1, len(traced.writes))
    addmul, delta = gf_rates(spec.block_size)
    metrics = {
        "core_self_us_per_op": per_op("core"),
        "client_self_us_per_op": per_op("client"),
        "net_self_us_per_op": per_op("net"),
        "storage_self_us_per_op": per_op("storage"),
        "erasure_self_us_per_op": per_op("erasure", "gf"),
        "directory_self_us_per_op": per_op("directory", "placement"),
        "wal_self_share": _metric(layers["storage.wal"] / total, "share"),
        "gc_busy_share": _metric(traced.gc_seconds / traced.elapsed, "share"),
        "erasure_mb_s": _metric(
            kernel_bytes / erasure_s / 1e6 if erasure_s else 0.0, "MB/s"),
        "gf_addmul_mb_s": _metric(addmul, "MB/s"),
        "gf_delta_mb_s": _metric(delta, "MB/s"),
        "msgs_per_op": _metric(counted["msgs"] / c_ops, "count"),
        "wire_bytes_per_user_byte": _metric(
            counted["wire_bytes"] / counted["user_bytes"], "ratio"),
        "retries_per_op": _metric(counted["retries"] / c_ops, "count"),
        "recovery_msgs_per_stripe": _metric(
            counted["recovery_msgs"] / max(1, counted["recoveries"]), "count"),
        "wal_syncs_per_write": _metric(
            counted["wal_appends"] / c_writes, "count"),
        "wal_bytes_per_user_byte": _metric(
            counted["wal_bytes"] / counted["user_bytes"], "ratio"),
        "wal_compactions": _metric(counted["wal_compactions"], "count"),
        "dir_msgs_per_op": _metric(counted["dir_msgs"] / c_ops, "count"),
        "dir_lookups_per_op": _metric(lookups / ops, "count"),
        "dir_cache_hit_share": _metric(
            1.0 - quorum_reads / lookups if lookups else 1.0, "share"),
        "gen_us_per_op": _metric(
            (traced.elapsed - busy) / ops * 1e6, "us"),
        "trace_overhead_share": _metric(
            traced_us / untraced_us - 1.0, "share"),
    }
    detail = {
        "layer_self_s": layers,
        "layer_share": {
            layer: value / total for layer, value in layers.items()
        },
        "spans": names,
        "traced_us_per_op": traced_us,
        "untraced_us_per_op": untraced_us,
        "wal_us_per_write": layers["storage.wal"] / wal_writes * 1e6,
    }
    return metrics, detail


# -- one run --------------------------------------------------------------


def run_untraced(spec: Workload, seed: int, seconds: float) -> dict:
    """The end-to-end pass: tracing off, ``observability=None``."""
    warm_up(spec, seed)
    setups = []
    for index in range(SETUPS):
        start = time.perf_counter()
        session = Session(spec, seed)
        setups.append(time.perf_counter() - start)
        if index < SETUPS - 1:  # only the last one carries the window
            session.close()
            del session
            gc.collect()
    try:
        out, rss_mb, noise = guarded_window(session, seconds)
        problems, replay_ms = (
            session.restart_check() if spec.durable else ([], 0.0)
        )
        problems += session.verify()
    finally:
        session.close()
    metrics, ungated = end_to_end(spec, out, len(session.clients),
                                  float(np.median(setups)), rss_mb)
    detail = {
        "ungated": ungated,
        "setup_times_s": setups,
        "noise": noise,
        "samples": {
            "reads": len(out.reads), "writes": len(out.writes),
            "p99_supported": min(len(out.reads), len(out.writes))
            >= P99_MIN_SAMPLES,
        },
        "wal_replay_ms": replay_ms,
    }
    return _result(problems, session.attempted, session.failed, metrics,
                   detail)


def counted_prefix(session: Session,
                   rounds: int) -> tuple[dict[str, float], Window]:
    """Run ``rounds`` fixed rounds; returns what the program's counters
    moved by, and the window.  Fixed work with one client: for one seed
    every count repeats exactly, on any machine."""
    before = session.counters()
    prefix = session.window(rounds=rounds)
    after = session.counters()
    counted = {key: after[key] - before[key] for key in after}
    counted["writes"] = len(prefix.writes)
    return counted, prefix


def run_traced(spec: Workload, seed: int, seconds: float) -> dict:
    """The per-layer pass: one client, so one logical op in flight.

    An untraced single-client window on a plain cluster gives the
    reference per-op time; a second cluster with the program's own
    ``Observability`` registry runs a counted prefix (exact counts) and
    then the traced window (self times)."""
    warm_up(spec, seed)
    reference = Session(spec, seed, clients=1)
    try:
        plain = reference.window(seconds=seconds * 0.3)
        problems = reference.verify()
    finally:
        reference.close()
    gc.collect()
    session = Session(spec, seed, clients=1,
                      observability=Observability.create())
    tracer = tracing.Tracer()
    try:
        tracer.install(session.cluster.transport)
        try:
            counted, _ = counted_prefix(session, COUNT_ROUNDS[spec.kind])
            tracer.records.clear()
            traced = session.window(seconds=seconds * 0.7)
        finally:
            tracer.uninstall()
        replay_problems, replay_ms = (
            session.restart_check() if spec.durable else ([], 0.0)
        )
        problems += replay_problems + session.verify()
    finally:
        session.close()
    spans = tracer.spans()
    metrics, detail = per_layer(
        spec, spans, traced, counted, plain.elapsed / plain.attempted * 1e6
    )
    detail["wal_replay_ms"] = replay_ms
    result = _result(
        problems, session.attempted + reference.attempted,
        session.failed + reference.failed, metrics, detail,
    )
    result["spans"] = spans
    return result


def _result(problems: list[str], attempted: int, failed: int, metrics: dict,
            detail: dict) -> dict:
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems[:20],
        "detail": detail,
    }
