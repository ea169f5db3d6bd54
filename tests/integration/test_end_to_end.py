"""Whole-system integration: workload + faults + maintenance together.

These are the closest analogue to the paper's §6.2 experiments run at
test scale: mixed read/write workloads over many stripes with storage
crashes, client crashes, GC and monitoring all active at once.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.client.config import ClientConfig, WriteStrategy
from repro.core.cluster import Cluster


class TestWorkloadWithCrashMidway:
    def test_fig9d_style_crash_and_gradual_recovery(self):
        """Two clients read/write random blocks over a 3-of-5 code; one
        storage node crashes midway; all blocks remain correct and the
        cluster converges back to full consistency (Fig. 9d shape)."""
        cluster = Cluster(k=3, n=5, block_size=64, seed=3)
        clients = [cluster.client(f"c{i}") for i in range(2)]
        blocks = 30
        expected = {}
        expected_lock = threading.Lock()
        for b in range(blocks):
            clients[0].write_block(b, bytes([b + 1]))
            expected[b] = b + 1
        crash_evt = threading.Event()
        errors: list[Exception] = []

        def worker(vol, seed):
            rng = np.random.default_rng(seed)
            for step in range(60):
                if step == 30:
                    crash_evt.set()
                b = int(rng.integers(0, blocks))
                try:
                    if rng.random() < 0.5:
                        value = int(rng.integers(1, 255))
                        with expected_lock:
                            vol.write_block(b, bytes([value]))
                            expected[b] = value
                    else:
                        data = vol.read_block(b)[0]
                        with expected_lock:
                            pass  # concurrent writers; just require no crash
                        assert 0 <= data < 256
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(vol, i)) for i, vol in enumerate(clients)
        ]
        crasher_done = []

        def crasher():
            crash_evt.wait(timeout=30)
            cluster.crash_storage(0)
            crasher_done.append(True)

        crash_thread = threading.Thread(target=crasher)
        crash_thread.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        crash_thread.join()
        assert not errors
        assert crasher_done
        # Sweep repairs whatever was not recovered on access.
        clients[0].monitor_sweep(range((blocks + 2) // 3))
        for b, value in expected.items():
            assert clients[0].read_block(b)[0] == value
        for s in range((blocks + 2) // 3):
            assert cluster.stripe_consistent(s)


class TestMaintenanceUnderLoad:
    def test_gc_concurrent_with_writes(self):
        cluster = Cluster(k=2, n=4, block_size=32)
        vol = cluster.client("w")
        stop = threading.Event()
        gc_rounds = []

        def gc_loop():
            while not stop.is_set():
                gc_rounds.append(vol.collect_garbage())

        gc_thread = threading.Thread(target=gc_loop)
        gc_thread.start()
        for i in range(80):
            vol.write_block(i % 8, bytes([i % 256]))
        stop.set()
        gc_thread.join()
        vol.collect_garbage()
        vol.collect_garbage()
        for s in range(4):
            assert cluster.stripe_consistent(s)
        assert cluster.metadata_bytes() / cluster.block_count() <= 10

    def test_monitor_concurrent_with_writes(self):
        cluster = Cluster(k=2, n=4, block_size=32)
        vol = cluster.client("w")
        aux = cluster.client("monitor")
        for b in range(8):
            vol.write_block(b, b"init")
        stop = threading.Event()

        def monitor_loop():
            while not stop.is_set():
                aux.monitor_sweep(range(4))

        t = threading.Thread(target=monitor_loop)
        t.start()
        for i in range(40):
            vol.write_block(i % 8, bytes([i + 1]))
        stop.set()
        t.join()
        for s in range(4):
            assert cluster.stripe_consistent(s)


class TestMixedStrategiesOneCluster:
    def test_clients_with_different_strategies_interoperate(self):
        cluster = Cluster(k=3, n=6, block_size=32)
        clients = [
            cluster.client(f"c-{strategy.value}", ClientConfig(strategy=strategy))
            for strategy in WriteStrategy
        ]

        def worker(vol, base):
            for i in range(15):
                vol.write_block((base + i) % 6, bytes([base + i]))

        threads = [
            threading.Thread(target=worker, args=(vol, 10 * i))
            for i, vol in enumerate(clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for s in range(2):
            assert cluster.stripe_consistent(s)


class TestLargerCodes:
    @pytest.mark.parametrize("k,n", [(8, 10), (14, 16)])
    def test_highly_efficient_codes_work_end_to_end(self, k, n):
        """The codes the paper advocates: large k, small n-k."""
        cluster = Cluster(k=k, n=n, block_size=32)
        vol = cluster.client("c")
        for b in range(k):
            vol.write_block(b, bytes([b + 1]))
        assert cluster.stripe_consistent(0)
        cluster.crash_storage(cluster.layout.node_of_stripe_index(0, 0))
        assert vol.read_block(0)[:1] == b"\x01"
        assert cluster.stripe_consistent(0)

    def test_write_cost_scales_with_p_not_n(self):
        """Fig. 1's structural claim measured end to end on 14-of-16."""
        cluster = Cluster(k=14, n=16, block_size=32)
        vol = cluster.client("c")
        vol.write_block(0, b"x")
        from repro.obs.metrics import MetricsRegistry

        registry = cluster.transport.metrics = MetricsRegistry()
        vol.write_block(0, b"y")
        total = registry.sum_counter("rpc_messages_total")
        assert total == 2 * (2 + 1)  # p=2 -> 6 messages, despite n=16
