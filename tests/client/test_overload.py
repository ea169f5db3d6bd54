"""Overload is not failure: NodeBusyError never remaps or recovers.

An admission-control shed means "alive, consistent, too busy" — the
one RPC outcome that must *not* feed the failure machinery.  If it did,
overload would trigger recovery, recovery would add reconstruction
traffic, and the cluster would melt down under its own fault handling.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.client.config import ClientConfig
from repro.client.monitor import Monitor
from repro.client.protocol import BUSY_RETRY_LIMIT
from repro.core.cluster import Cluster
from repro.errors import NodeBusyError, ReadFailedError
from repro.storage.state import LockMode


def saturated_cluster(limit: int = 1) -> Cluster:
    """An admission-limited cluster with every node's queue full."""
    cluster = Cluster(k=2, n=4, block_size=64, admission_limit=limit)
    loader = cluster.client("loader")
    for block in range(4):
        loader.write_block(block, f"blk{block}".encode())
    return cluster


def saturate(cluster: Cluster) -> None:
    admission = cluster.transport.admission
    assert admission is not None
    for node in sorted(cluster.transport.members()):
        for _ in range(admission.limit):
            admission.acquire(node, op="test-hold")


def drain(cluster: Cluster) -> None:
    admission = cluster.transport.admission
    assert admission is not None
    for node in sorted(cluster.transport.members()):
        while admission.inflight(node) > 0:
            admission.release(node)


class TestBusyReads:
    def test_read_retries_through_transient_overload(self):
        cluster = saturated_cluster()
        reader = cluster.client("reader", ClientConfig(backoff=0.005))
        saturate(cluster)
        releaser = threading.Timer(0.05, drain, args=(cluster,))
        releaser.start()
        try:
            data = reader.read_block(0)
        finally:
            releaser.join()
        assert bytes(data[:4]) == b"blk0"
        stats = reader.protocol.stats
        assert stats.busy_rejections >= 1
        assert stats.remaps == 0
        assert stats.suspicion_remaps == 0
        assert stats.recoveries_started == 0

    def test_permanent_overload_fails_without_remap_or_recovery(self):
        cluster = saturated_cluster()
        bindings = {
            slot: cluster.directory.node_id(slot)
            for slot in cluster.directory.slots()
        }
        reader = cluster.client(
            "reader",
            ClientConfig(
                backoff=0.0005,
                backoff_cap=0.002,
                max_op_attempts=3,
            ),
        )
        saturate(cluster)
        try:
            with pytest.raises(ReadFailedError):
                reader.read_block(0)
        finally:
            drain(cluster)
        stats = reader.protocol.stats
        assert stats.busy_rejections >= 1
        assert stats.remaps == 0
        assert stats.suspicion_remaps == 0
        assert stats.recoveries_started == 0
        # No slot was remapped: overload never looked like a crash.
        assert bindings == {
            slot: cluster.directory.node_id(slot)
            for slot in cluster.directory.slots()
        }

    def test_busy_raise_reaches_caller_after_retry_limit(self):
        cluster = saturated_cluster()
        client = cluster.protocol_client(
            "direct",
            ClientConfig(backoff=0.0005, backoff_cap=0.002),
        )
        saturate(cluster)
        try:
            with pytest.raises(NodeBusyError):
                client.rpc("monitor", 0, 0, "probe")
        finally:
            drain(cluster)
        # BUSY_RETRY_LIMIT retries + the initial attempt, all shed.
        assert client.stats.busy_rejections == BUSY_RETRY_LIMIT + 1


class TestBusyBackground:
    def test_monitor_counts_busy_and_does_not_recover(self):
        cluster = saturated_cluster()
        monitor = Monitor(
            cluster.protocol_client(
                "mon",
                ClientConfig(backoff=0.0005, backoff_cap=0.002),
            ),
            stale_after=1.0,
        )
        saturate(cluster)
        try:
            report = monitor.sweep(range(2), deep=True)
        finally:
            drain(cluster)
        assert report.busy > 0
        assert report.unreachable == 0
        assert report.recovered_stripes == []

    def test_busy_node_health_untouched(self):
        """Sheds must not decay the health score either — an overloaded
        node is not a gray node."""
        cluster = saturated_cluster()
        client = cluster.protocol_client(
            "probe", ClientConfig(backoff=0.0005, backoff_cap=0.002)
        )
        saturate(cluster)
        try:
            with pytest.raises(NodeBusyError):
                client.rpc("monitor", 0, 0, "probe")
        finally:
            drain(cluster)
        assert all(
            h.failures == 0 for h in cluster.health.snapshot().values()
        )

    def test_stripe_usable_after_overload_clears(self):
        cluster = saturated_cluster()
        saturate(cluster)
        drain(cluster)
        volume = cluster.client("after")
        volume.write_block(0, b"post")
        assert bytes(volume.read_block(0)[:4]) == b"post"
        # Nothing held a recovery lock through the episode.
        prober = cluster.protocol_client("lockcheck")
        for j in range(4):
            _, lmode, _, _ = prober.rpc("monitor", 0, j, "probe")
            assert lmode is LockMode.UNL
