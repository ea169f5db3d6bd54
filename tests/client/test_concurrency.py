"""Concurrent clients: the lock-free consistency claims of §3.6-§3.7.

Includes a multi-writer regular-register checker (§3.1): every read
must return either the value of a write overlapping it, or the value of
a latest write that completed before it started — never garbage, never
a long-overwritten value.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np
import pytest

from repro.client.config import ClientConfig, WriteStrategy
from repro.core.cluster import Cluster
from repro.net.local import DelayModel

#: A modeled network delay.  It puts a round's legs on the pool, and
#: each message's sleep lets the other clients' threads run, so these
#: clients overlap at every message as clients on separate hosts do.
#: With no delay, in-process clients interleave only at lock waits and
#: the interpreter's switch interval.
OVERLAP = DelayModel(latency=50e-6)


@dataclass
class OpRecord:
    kind: str  # "read" | "write"
    value: int
    start: float
    end: float


class HistoryChecker:
    """Validates multi-writer regular-register semantics per block."""

    def __init__(self):
        self._records: list[OpRecord] = []
        self._lock = threading.Lock()

    def record(self, kind: str, value: int, start: float, end: float) -> None:
        with self._lock:
            self._records.append(OpRecord(kind, value, start, end))

    def check(self, initial_value: int = 0) -> None:
        writes = [r for r in self._records if r.kind == "write"]
        reads = [r for r in self._records if r.kind == "read"]
        for read in reads:
            admissible = {
                w.value
                for w in writes
                if w.start <= read.end and w.end >= read.start  # overlapping
            }
            completed_before = [w for w in writes if w.end < read.start]
            if completed_before:
                # Any write not strictly superseded by another completed
                # write could be "the previous value".
                for w in completed_before:
                    superseded = any(
                        other.start > w.end and other.end < read.start
                        for other in completed_before
                    )
                    if not superseded:
                        admissible.add(w.value)
            else:
                admissible.add(initial_value)
            assert read.value in admissible, (
                f"read {read.value} at [{read.start:.6f},{read.end:.6f}] "
                f"not admissible; allowed {sorted(admissible)}"
            )


def run_threads(targets):
    threads = [threading.Thread(target=t) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def fill(size, value):
    return np.full(size, value % 256, dtype=np.uint8)


class TestDifferentBlocksSameStripe:
    """The §3.4 challenge case: writers to different blocks coupled by
    the code, no client coordination."""

    @pytest.mark.parametrize(
        "strategy", [WriteStrategy.SERIAL, WriteStrategy.PARALLEL, WriteStrategy.BROADCAST]
    )
    def test_two_writers_converge_consistent(self, strategy):
        cluster = Cluster(k=2, n=4, block_size=64, delay=OVERLAP)
        a = cluster.protocol_client("a", ClientConfig(strategy=strategy))
        b = cluster.protocol_client("b", ClientConfig(strategy=strategy))

        def writer(client, index, base):
            for i in range(40):
                client.write(0, index, fill(64, base + i))

        run_threads([lambda: writer(a, 0, 0), lambda: writer(b, 1, 100)])
        assert cluster.stripe_consistent(0)
        assert a.read(0, 0)[0] == 39
        assert b.read(0, 1)[0] == (100 + 39) % 256

    def test_many_writers_many_stripes(self):
        cluster = Cluster(k=3, n=5, block_size=32, delay=OVERLAP)
        clients = [cluster.protocol_client(f"c{i}") for i in range(4)]

        def worker(client, seed):
            rng = np.random.default_rng(seed)
            for _ in range(40):
                stripe = int(rng.integers(0, 4))
                index = int(rng.integers(0, 3))
                client.write(stripe, index, fill(32, int(rng.integers(0, 256))))

        run_threads(
            [lambda c=c, s=i: worker(c, s) for i, c in enumerate(clients)]
        )
        for stripe in range(4):
            assert cluster.stripe_consistent(stripe)


class TestSameBlock:
    def test_concurrent_same_block_writes_serialize(self):
        cluster = Cluster(k=2, n=4, block_size=64, delay=OVERLAP)
        clients = [cluster.protocol_client(f"c{i}") for i in range(3)]
        written: set[int] = set()
        lock = threading.Lock()

        def writer(client, base):
            for i in range(15):
                value = base + i
                client.write(0, 0, fill(64, value))
                with lock:
                    written.add(value % 256)

        run_threads(
            [lambda c=c, b=50 * i: writer(c, b) for i, c in enumerate(clients)]
        )
        assert cluster.stripe_consistent(0)
        final = clients[0].read(0, 0)[0]
        assert final in written  # never garbage

    def test_regular_register_semantics_under_contention(self):
        cluster = Cluster(k=2, n=4, block_size=64, delay=OVERLAP)
        writer_clients = [cluster.protocol_client(f"w{i}") for i in range(2)]
        reader = cluster.protocol_client("r")
        checker = HistoryChecker()
        stop = threading.Event()

        def writer(client, base):
            for i in range(25):
                value = (base + i) % 256
                start = time.monotonic()
                client.write(0, 1, fill(64, value))
                checker.record("write", value, start, time.monotonic())

        def reading():
            while not stop.is_set():
                start = time.monotonic()
                value = int(reader.read(0, 1)[0])
                checker.record("read", value, start, time.monotonic())

        read_thread = threading.Thread(target=reading)
        read_thread.start()
        run_threads(
            [lambda c=c, b=100 * i: writer(c, b) for i, c in enumerate(writer_clients)]
        )
        stop.set()
        read_thread.join()
        checker.check(initial_value=0)
        assert cluster.stripe_consistent(0)


class TestReadersDontBlockWriters:
    def test_interleaved_read_write_throughput(self):
        cluster = Cluster(k=2, n=4, block_size=32, delay=OVERLAP)
        writer = cluster.protocol_client("w")
        readers = [cluster.protocol_client(f"r{i}") for i in range(3)]
        done = threading.Event()

        def write_loop():
            for i in range(60):
                writer.write(0, 0, fill(32, i))
            done.set()

        counts = [0, 0, 0]

        def read_loop(idx):
            while not done.is_set():
                readers[idx].read(0, 0)
                counts[idx] += 1

        run_threads(
            [write_loop] + [lambda i=i: read_loop(i) for i in range(3)]
        )
        assert all(c > 0 for c in counts)
        assert cluster.stripe_consistent(0)
