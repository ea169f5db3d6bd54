"""The paper's fourth limitation: partitions and the vulnerability window.

"Consider the following scenario: (a) t_p + 1 clients are simultaneously
writing to the same stripe S, and (b) a network partition ... causes
those t_p + 1 clients to be permanently disconnected.  This results in
t_p + 1 client partial writes that make the system vulnerable: a
subsequent storage crash in this configuration cannot be tolerated.
We mitigate this problem by using a monitoring mechanism ..."
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cluster import Cluster
from repro.errors import DataLossError, PartitionedError
from repro.ids import Tid
from repro.client.config import ClientConfig


def fill(size, value):
    return np.full(size, value % 256, dtype=np.uint8)


def partial_write(cluster, client_id, index, value):
    """Swap lands, then the client is cut off by a partition."""
    client = cluster.protocol_client(client_id)
    result = client.rpc("write", 0, index, "swap", fill(64, value), Tid(1, index, client_id))
    assert result.block is not None
    storage_ids = [cluster.directory.node_id(s) for s in range(cluster.code.n)]
    cluster.transport.partition([client_id], storage_ids)
    return client


class TestPartitionBasics:
    def test_partitioned_client_cannot_reach_storage(self, small_cluster):
        client = small_cluster.protocol_client("cut")
        storage_ids = [f"storage-{j}" for j in range(4)]
        small_cluster.transport.partition(["cut"], storage_ids)
        with pytest.raises(PartitionedError):
            client.rpc("read", 0, 0, "read")

    def test_heal_restores_connectivity(self, small_cluster):
        client = small_cluster.protocol_client("cut")
        small_cluster.transport.partition(["cut"], ["storage-0"])
        small_cluster.transport.heal()
        client.rpc("read", 0, 0, "read")

    def test_other_clients_unaffected(self, small_cluster):
        vol = small_cluster.client("ok")
        small_cluster.transport.partition(["cut"], [f"storage-{j}" for j in range(4)])
        vol.write_block(0, b"fine")
        assert vol.read_block(0)[:4] == b"fine"


class TestVulnerabilityWindow:
    def test_partial_writes_survivable_when_data_nodes_live(self):
        """Even t_p + 1 = 2 partitioned partial writers plus a storage
        crash can be survivable if the dirty *data* nodes stay up: the
        data blocks themselves form a consistent set of size k and the
        half-done writes are simply completed by recovery."""
        cluster = Cluster(k=2, n=4, block_size=64)
        vol = cluster.client("good")
        vol.write_block(0, b"safe")
        vol.write_block(1, b"safe")
        partial_write(cluster, "lost1", 0, 111)
        partial_write(cluster, "lost2", 1, 222)
        cluster.crash_storage(cluster.layout.node_of_stripe_index(0, 2))
        assert vol.recover_stripe(0)
        assert cluster.stripe_consistent(0)
        assert vol.read_block(0)[0] == 111  # swap completed by recovery
        assert vol.read_block(1)[0] == 222

    def test_partial_write_plus_crashes_beyond_budget_loses_data(self):
        """The documented limitation materializing: a partial write on
        one data block plus the loss of the *other* data block and one
        redundant block leaves no consistent set of size k — the dirty
        survivor cannot be matched with the clean redundant one."""
        cluster = Cluster(k=2, n=4, block_size=64)
        vol = cluster.client("good", ClientConfig(recovery_wait_limit=3,
                                                  max_op_attempts=20))
        vol.write_block(0, b"safe")
        vol.write_block(1, b"safe")
        partial_write(cluster, "lost1", 1, 111)  # data block 1 dirty
        cluster.crash_storage(cluster.layout.node_of_stripe_index(0, 0))
        cluster.crash_storage(cluster.layout.node_of_stripe_index(0, 2))
        with pytest.raises(DataLossError):
            vol.recover_stripe(0)

    def test_monitor_before_crash_restores_safety(self):
        """The mitigation: if the monitor runs after the partial writes
        but *before* any storage crash, full recoverability returns —
        even though t_p was exceeded (§3.10)."""
        cluster = Cluster(k=2, n=4, block_size=64)
        vol = cluster.client("good")
        vol.write_block(0, b"safe")
        vol.write_block(1, b"safe")
        partial_write(cluster, "lost1", 0, 111)
        partial_write(cluster, "lost2", 1, 222)
        vol.monitor.stale_after = 0.0
        report = vol.monitor_sweep([0])
        assert report.recovered_stripes == [0]
        assert cluster.stripe_consistent(0)
        # NOW a storage crash is tolerable again.
        cluster.crash_storage(cluster.layout.node_of_stripe_index(0, 0))
        assert vol.read_block(0)[:4] == b"safe"
        assert cluster.stripe_consistent(0)

    def test_single_partial_write_within_budget_survives_crash(self):
        """Within the t_p = 1 budget, one partial write plus one storage
        crash is recoverable without any monitor help."""
        cluster = Cluster(k=2, n=4, block_size=64)
        vol = cluster.client("good")
        vol.write_block(0, b"safe")
        vol.write_block(1, b"safe")
        partial_write(cluster, "lost1", 0, 111)
        cluster.crash_storage(cluster.layout.node_of_stripe_index(0, 3))
        assert vol.recover_stripe(0)
        assert cluster.stripe_consistent(0)
        assert vol.read_block(1)[:4] == b"safe"
