"""Degraded reads — the read-without-repair extension."""

from __future__ import annotations

import numpy as np
import pytest

from repro.client.config import ClientConfig
from repro.core.cluster import Cluster
from repro.storage.state import LockMode


@pytest.fixture
def cluster():
    c = Cluster(k=3, n=5, block_size=64)
    vol = c.client("seed")
    for b in range(9):
        vol.write_block(b, bytes([b + 1]))
    return c


class TestReadDegraded:
    def test_decodes_lost_data_block(self, cluster):
        client = cluster.protocol_client("c")
        cluster.crash_storage(cluster.layout.node_of_stripe_index(0, 0))
        value = client.read_degraded(0, 0)
        assert value is not None and value[0] == 1

    def test_no_repair_side_effect(self, cluster):
        client = cluster.protocol_client("c")
        cluster.crash_storage(cluster.layout.node_of_stripe_index(0, 0))
        client.read_degraded(0, 0)
        # The stripe is still damaged (INIT on the replacement node):
        assert not cluster.stripe_consistent(0)
        assert client.stats.recoveries_started == 0

    def test_healthy_stripe_served_from_snapshot(self, cluster):
        client = cluster.protocol_client("c")
        value = client.read_degraded(1, 2)
        assert value is not None and value[0] == 6

    def test_returns_none_beyond_tolerance(self, cluster):
        client = cluster.protocol_client("c")
        for j in (0, 1, 2):
            cluster.crash_storage(cluster.layout.node_of_stripe_index(0, j))
        assert client.read_degraded(0, 0) is None

    def test_pending_partial_write_resolved_consistently(self, cluster):
        """A partial write makes the dirty data node inconsistent with
        the redundant set; the degraded read must pick one coherent
        history — old everywhere or new everywhere."""
        from repro.ids import Tid

        bad = cluster.protocol_client("bad")
        bad.rpc("write", 0, 0, "swap", np.full(64, 99, np.uint8), Tid(1, 0, "bad"))
        cluster.crash_client("bad")
        client = cluster.protocol_client("c")
        value = client.read_degraded(0, 0)
        assert value is not None
        assert value[0] in (1, 99)


class TestReadFallback:
    def test_read_serves_degraded_during_outage(self, cluster):
        config = ClientConfig(degraded_reads=True)
        client = cluster.protocol_client("c", config)
        cluster.crash_storage(cluster.layout.node_of_stripe_index(0, 0))
        assert client.read(0, 0)[0] == 1
        # Served without running recovery (left to monitor/rebuilder).
        assert client.stats.recoveries_started == 0

    def test_read_without_flag_recovers(self, cluster):
        client = cluster.protocol_client("c", ClientConfig(degraded_reads=False))
        cluster.crash_storage(cluster.layout.node_of_stripe_index(0, 0))
        assert client.read(0, 0)[0] == 1
        assert client.stats.recoveries_completed >= 1
        assert cluster.stripe_consistent(0)

    def test_degraded_read_traced(self, cluster):
        from repro.obs.trace import Tracer

        client = cluster.protocol_client("c", ClientConfig(degraded_reads=True))
        tracer = Tracer()
        client.tracer = tracer
        cluster.crash_storage(cluster.layout.node_of_stripe_index(0, 0))
        client.read(0, 0)
        assert tracer.count("read.degraded") == 1

    def test_writes_still_repair(self, cluster):
        """Degraded reads never mask damage from writes: a write to the
        damaged stripe still triggers full recovery."""
        config = ClientConfig(degraded_reads=True)
        client = cluster.protocol_client("c", config)
        cluster.crash_storage(cluster.layout.node_of_stripe_index(0, 1))
        client.write(0, 1, np.full(64, 42, np.uint8))
        assert cluster.stripe_consistent(0)
        assert client.read(0, 1)[0] == 42
