"""Protocol behaviour across asymmetric partitions and gray windows.

The satellite scenarios: an in-flight write rides out a targeted
partition + heal without leaving any stripe locked, and the circuit
breaker that condemned a gray node closes again once the node answers.
"""

from __future__ import annotations

import threading

from repro.client.config import ClientConfig
from repro.client.health import PROBE_INTERVAL, CircuitState
from repro.core.cluster import Cluster
from repro.net.chaos import FaultPlan, FaultRule
from repro.storage.state import LockMode


def pin_node(cluster: Cluster, node_id: str) -> None:
    """Pin the slot bound to ``node_id`` so remap cannot replace it —
    clients must ride out the outage against the same node."""
    for slot in cluster.directory.slots():
        if cluster.directory.node_id(slot) == node_id:
            cluster.directory.pin(slot)


def primary_node(cluster: Cluster, block: int) -> str:
    client = cluster.protocol_client("layout-probe")
    loc = cluster.layout.locate(block)
    return cluster.directory.node_id(
        client._slot(loc.stripe, loc.data_index)
    )


def assert_stripe_unlocked(cluster: Cluster, stripe: int) -> None:
    prober = cluster.protocol_client("lockcheck")
    for j in range(cluster.code.n):
        _, lmode, _, _ = prober._call(stripe, j, "probe", prober._addr(stripe, j))
        assert lmode is LockMode.UNL


class TestInflightWriteAcrossPartition:
    def test_write_rides_out_targeted_partition_and_heal(self):
        cluster = Cluster(k=2, n=4, block_size=64)
        volume = cluster.client(
            "writer", ClientConfig(backoff=0.001, backoff_cap=0.01)
        )
        volume.write_block(0, b"before")
        target = primary_node(cluster, 0)
        pin_node(cluster, target)

        # Cut the writer off from the block's primary node only — it
        # still reaches everyone else (asymmetric), and the pinned slot
        # means no replacement can paper over the outage.
        cluster.transport.partition(["writer"], [target])

        done = threading.Event()
        failure: list[BaseException] = []

        def attempt():
            try:
                volume.write_block(0, b"during")
            except BaseException as exc:  # surfaced in the main thread
                failure.append(exc)
            finally:
                done.set()

        thread = threading.Thread(target=attempt)
        thread.start()
        # The write is in flight, spinning against the partition.
        assert not done.wait(0.08)
        cluster.transport.heal(["writer"], [target])
        assert done.wait(10.0)
        thread.join()
        assert not failure

        loc = cluster.layout.locate(0)
        assert_stripe_unlocked(cluster, loc.stripe)
        # The pinned slot still binds the same node: the writer rode
        # the outage out rather than swapping in a replacement.
        assert primary_node(cluster, 0) == target
        reader = cluster.client("reader")
        assert bytes(reader.read_block(0)[:6]) == b"during"

    def test_recovery_during_partition_leaves_no_locks(self):
        """A recovery running while its client is cut off from one node
        must complete against the reachable majority and release every
        lock it took — no stripe wedged for future recoveries."""
        cluster = Cluster(k=2, n=4, block_size=64)
        volume = cluster.client("loader")
        volume.write_block(0, b"payload")
        loc = cluster.layout.locate(0)

        target = primary_node(cluster, 0)
        pin_node(cluster, target)
        cluster.transport.partition(["auditor"], [target])
        auditor = cluster.protocol_client(
            "auditor", ClientConfig(backoff=0.001, backoff_cap=0.01)
        )
        auditor.recover(loc.stripe)

        cluster.transport.heal(["auditor"], [target])
        assert_stripe_unlocked(cluster, loc.stripe)
        reader = cluster.client("reader")
        assert bytes(reader.read_block(0)[:7]) == b"payload"


class TestBreakerAcrossGrayWindow:
    def test_breaker_opens_then_closes_after_heal(self):
        """The breaker condemns a gray node after `suspicion_threshold`
        timeouts, fails fast while it is open, and closes again via a
        half-open probe once the node answers — reads stay degraded but
        successful throughout."""
        plan = FaultPlan(
            [FaultRule(dst="storage-0", stall=30.0)], seed=3, blackhole=30.0
        )
        cluster = Cluster(k=2, n=4, block_size=64, chaos_plan=plan)
        assert cluster.chaos is not None
        cluster.chaos.disable()
        loader = cluster.client("loader")
        for block in range(8):
            loader.write_block(block, f"blk{block}".encode())
        block = next(
            b for b in range(8) if primary_node(cluster, b) == "storage-0"
        )
        pin_node(cluster, "storage-0")
        cluster.chaos.enable()

        reader = cluster.client(
            "reader",
            ClientConfig(
                rpc_timeout=0.02,
                suspicion_threshold=2,
                degraded_reads=True,
                backoff=0.001,
            ),
        )
        payload = f"blk{block}".encode()
        # Two timed-out reads trip the breaker...
        for _ in range(2):
            assert bytes(reader.read_block(block)[: len(payload)]) == payload
        assert cluster.health.state("storage-0") is CircuitState.OPEN
        assert cluster.health.breaker_opens == 1
        # ...and while it is open, reads skip the 20 ms timeout entirely.
        assert bytes(reader.read_block(block)[: len(payload)]) == payload
        assert reader.protocol.stats.breaker_fast_fails >= 1

        cluster.chaos.disable()  # the gray window ends
        # Every read spends at least one blocked attempt, so this many
        # reads reach the half-open probe.
        for _ in range(PROBE_INTERVAL):
            assert bytes(reader.read_block(block)[: len(payload)]) == payload
        # A half-open probe succeeded: the node is trusted again.
        assert cluster.health.state("storage-0") is CircuitState.CLOSED
        before = reader.protocol.stats.degraded_reads
        assert bytes(reader.read_block(block)[: len(payload)]) == payload
        assert reader.protocol.stats.degraded_reads == before  # primary path
