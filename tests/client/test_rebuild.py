"""Bulk rebuild scheduler."""

from __future__ import annotations

import threading
import time

import pytest

from repro.client.rebuild import RebuildReport, Rebuilder
from repro.core.cluster import Cluster
from repro.errors import NodeBusyError


@pytest.fixture
def damaged_cluster():
    cluster = Cluster(k=3, n=5, block_size=64)
    vol = cluster.client("seed")
    for b in range(30):  # 10 stripes
        vol.write_block(b, bytes([b + 1]))
    cluster.crash_storage(0)
    return cluster, vol


class TestRebuild:
    def test_recovers_only_damaged_stripes(self, damaged_cluster):
        cluster, vol = damaged_cluster
        # Pre-repair a couple of stripes through normal access.
        vol.recover_stripe(0)
        vol.recover_stripe(1)
        rebuilder = Rebuilder(cluster.protocol_client("rebuilder"))
        report = rebuilder.rebuild(range(10))
        assert report.examined == 10
        assert report.healthy == 2
        assert sorted(report.recovered) == list(range(2, 10))
        assert report.failed == []
        for s in range(10):
            assert cluster.stripe_consistent(s)

    def test_all_data_intact_after_rebuild(self, damaged_cluster):
        cluster, vol = damaged_cluster
        Rebuilder(cluster.protocol_client("r")).rebuild(range(10))
        for b in range(30):
            assert vol.read_block(b)[:1] == bytes([b + 1])

    def test_healthy_cluster_is_a_noop(self):
        cluster = Cluster(k=2, n=4, block_size=64)
        vol = cluster.client("c")
        vol.write_block(0, b"x")
        report = Rebuilder(cluster.protocol_client("r")).rebuild(range(1))
        assert report.healthy == 1
        assert report.recovered == [] and report.failed == []

    def test_shed_probe_does_not_hide_damage(self):
        """A probe shed at one position says nothing about the stripe,
        so the sweep keeps probing and still finds the crashed one."""
        cluster = Cluster(k=2, n=4, block_size=64)
        vol = cluster.client("c")
        vol.write_block(0, b"x")
        cluster.crash_storage(cluster.slot_of(0, 3))
        busy = cluster.node_for_slot(cluster.slot_of(0, 0))
        handle = busy.handle

        def shed_probes(op, *args, **kwargs):
            if op == "probe":
                raise NodeBusyError(busy.node_id)
            return handle(op, *args, **kwargs)

        busy.handle = shed_probes
        rebuilder = Rebuilder(cluster.protocol_client("r"))
        assert rebuilder._stripe_damaged(0)
        report = rebuilder.rebuild([0])
        assert report.healthy == 0
        assert report.recovered == [0]
        assert cluster.stripe_consistent(0)

    def test_progress_callback_invoked(self, damaged_cluster):
        cluster, _ = damaged_cluster
        seen = []
        rebuilder = Rebuilder(
            cluster.protocol_client("r"),
            progress=lambda stripe, rep: seen.append(stripe),
        )
        rebuilder.rebuild(range(10))
        assert seen == list(range(10))

    def test_stop_event_aborts(self, damaged_cluster):
        cluster, _ = damaged_cluster
        stop = threading.Event()
        count = []

        def maybe_stop(stripe, report):
            count.append(stripe)
            if len(count) == 3:
                stop.set()

        rebuilder = Rebuilder(cluster.protocol_client("r"), progress=maybe_stop)
        report = rebuilder.rebuild(range(10), stop=stop)
        assert report.examined == 3

    def test_rate_limit_paces_the_sweep(self):
        cluster = Cluster(k=2, n=4, block_size=64)
        vol = cluster.client("c")
        for b in range(8):
            vol.write_block(b, b"x")
        rebuilder = Rebuilder(
            cluster.protocol_client("r"), stripes_per_second=100.0
        )
        start = time.perf_counter()
        rebuilder.rebuild(range(4))
        assert time.perf_counter() - start >= 0.03  # 4 stripes at 10ms each

    def test_async_rebuild(self, damaged_cluster):
        cluster, _ = damaged_cluster
        rebuilder = Rebuilder(cluster.protocol_client("r"))
        thread, stop, result = rebuilder.rebuild_async(range(10))
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert result and result[0].examined == 10
        for s in range(10):
            assert cluster.stripe_consistent(s)

    def test_recovery_mbps(self):
        report = RebuildReport(recovered=[1, 2, 3], elapsed=0.5)
        # 3 stripes of 3KB payload in 0.5s.
        assert report.recovery_mbps(3 * 1024) == pytest.approx(
            3 * 3 * 1024 / 0.5 / 1e6
        )
        assert RebuildReport().recovery_mbps(1024) == 0.0

    def test_foreground_traffic_during_rebuild(self, damaged_cluster):
        """Reads and writes proceed while the rebuilder runs.

        The two threads advance in lockstep: the rebuilder pauses after
        each stripe (via its progress callback) until the foreground
        client has completed one write+read round.  Every interleaving
        is therefore exercised deterministically — unlike the previous
        free-running version, which raced the rebuilder against the
        foreground loop and flaked when either side starved the other.
        """
        cluster, vol = damaged_cluster
        stripe_done = threading.Event()
        foreground_done = threading.Event()

        def pause(stripe: int, report: RebuildReport) -> None:
            stripe_done.set()
            assert foreground_done.wait(timeout=10), "foreground stalled"
            foreground_done.clear()

        rebuilder = Rebuilder(cluster.protocol_client("r"), progress=pause)
        thread, stop, result = rebuilder.rebuild_async(range(10))
        for i in range(10):
            assert stripe_done.wait(timeout=10), "rebuilder stalled"
            stripe_done.clear()
            vol.write_block(i, bytes([200 + i]))
            assert vol.read_block(i)[:1] == bytes([200 + i])
            foreground_done.set()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert result and result[0].examined == 10
        assert result[0].failed == []
        for s in range(10):
            assert cluster.stripe_consistent(s)
