"""Frame rounds that must be answered: recovery phases 2 and 3, lock
releases, degraded reads and the ORDER check re-send a position whose
answer was retryable in the next frame round of the same round, and
leave every other outcome as that position's result."""

from __future__ import annotations

import numpy as np
import pytest

from repro.client.config import ClientConfig
from repro.client.protocol import BUSY_RETRY_LIMIT
from repro.core.cluster import Cluster
from repro.errors import NodeBusyError, NodeUnavailableError
from repro.ids import BlockAddr
from repro.net.chaos import FaultPlan, FaultRule
from repro.obs import Observability
from repro.storage.state import LockMode

K, N, BS = 3, 5, 64
CLIENT = "r"


class CallLog:
    """Records every call's ``(dst, op)`` and hands it to the real
    transport; the first ``sheds`` calls matching ``shed`` are answered
    with an admission shed instead."""

    def __init__(self, inner, shed: tuple[str, str] | None = None, sheds: int = 0):
        self._inner = inner
        self._shed = shed
        self._sheds = sheds
        self.calls: list[tuple[str, str]] = []

    def call(self, src, dst, op, *args, **kwargs):
        self.calls.append((dst, op))
        if (dst, op) == self._shed and self._sheds:
            self._sheds -= 1
            raise NodeBusyError(dst)
        return self._inner.call(src, dst, op, *args, **kwargs)

    def count(self, dst: str, op: str) -> int:
        return self.calls.count((dst, op))

    def __getattr__(self, name):
        return getattr(self._inner, name)


def make_cluster(retry_budget: float | None = None) -> Cluster:
    """A 3-of-5 chaos cluster whose stripe 0 is written by a loader
    client, so ``CLIENT``'s links start at op count 0."""
    cluster = Cluster(
        k=K, n=N, block_size=BS, seed=3, chaos_plan=FaultPlan([], seed=3),
        observability=Observability.create(), retry_budget=retry_budget,
    )
    loader = cluster.protocol_client("loader")
    for i in range(K):
        loader.write(0, i, value(i))
    return cluster


def value(tag: int) -> np.ndarray:
    return (np.arange(BS, dtype=np.uint16) * 5 + 11 * tag).astype(np.uint8)


def node_at(cluster: Cluster, j: int) -> str:
    return cluster.directory.node_id(cluster.slot_of(0, j))


def drop_once(cluster: Cluster, dst: str, op: str, count: int) -> None:
    """Drop ``CLIENT``'s ``op`` to ``dst`` when it is the link's op
    number ``count``, and nothing else."""
    cluster.chaos.plan = FaultPlan(
        [FaultRule(src=CLIENT, dst=dst, op=op, drop=1.0, after_op=count,
                   before_op=count + 1)],
        seed=3,
    )


def recovering_client(cluster: Cluster, **log) -> tuple:
    """``CLIENT`` with an RPC deadline and short backoffs, its calls
    logged (and shed) by a :class:`CallLog` built with ``log``."""
    client = cluster.protocol_client(
        CLIENT, ClientConfig(rpc_timeout=0.05, backoff=0.0005, backoff_cap=0.001)
    )
    client.transport = CallLog(client.transport, **log)
    return client, client.transport


def rounds(cluster: Cluster, kind: str) -> int:
    return cluster.observability.registry.sum_counter(
        "rpc_rounds_total", kind=kind
    )


def lmodes(cluster: Cluster) -> list[LockMode]:
    return [
        cluster.node_for_slot(cluster.slot_of(0, j))
        .peek(BlockAddr("vol0", 0, j)).lmode
        for j in range(N)
    ]


def capture_results(client) -> dict:
    """Every position result the client's frame rounds return."""
    seen: dict = {}
    send = client.fan_out_frames

    def spy(*args, **kwargs):
        answered, results = send(*args, **kwargs)
        seen.update(results)
        return answered, results

    client.fan_out_frames = spy
    return seen


def test_dropped_reconstruct_is_resent_once_to_the_same_node():
    cluster = make_cluster()
    target = node_at(cluster, 1)
    # On this link: trylock (op 0), get_state (1), reconstruct (2).
    drop_once(cluster, target, "reconstruct", 2)
    client, log = recovering_client(cluster)
    assert client.recover(0)
    assert log.count(target, "reconstruct") == 2
    assert [op for dst, op in log.calls if dst == target] == [
        "trylock", "get_state", "reconstruct", "reconstruct", "finalize",
    ]
    assert cluster.chaos.ledger_counts() == {"drop": 1}
    assert client.stats.rpc_timeouts == 1
    assert client.stats.remaps == 0
    # The re-send is part of its round, as a leg's retry was.
    assert rounds(cluster, "recovery_phase3") == 2
    assert cluster.stripe_consistent(0)
    assert lmodes(cluster) == [LockMode.UNL] * N


@pytest.mark.parametrize("sheds, tokens", [(1, 0), (BUSY_RETRY_LIMIT + 1, 1)])
def test_shed_get_state_is_resent_after_backoff(sheds, tokens):
    """A shed is backed off and re-sent at no budget cost up to the busy
    bound; the shed past it is a phase-2 outcome whose repeat spends
    one retry-budget token."""
    cluster = make_cluster(retry_budget=10.0)
    target = node_at(cluster, 2)
    client, log = recovering_client(
        cluster, shed=(target, "get_state"), sheds=sheds
    )
    backoffs: list[int] = []
    sleep = client._sleep_backoff
    client._sleep_backoff = lambda done: (backoffs.append(done), sleep(done))
    assert client.recover(0)
    assert log.count(target, "get_state") == sheds + 1
    assert backoffs == list(range(min(sheds, BUSY_RETRY_LIMIT)))
    assert client.stats.busy_rejections == sheds
    assert cluster.retry_budget.spent == tokens
    assert rounds(cluster, "recovery_phase2") == 1
    assert cluster.stripe_consistent(0)


def test_timed_out_release_is_resent_and_the_stripe_ends_unlocked():
    cluster = make_cluster()
    holder = cluster.protocol_client("holder")
    holder.rpc("recovery_phase1", 0, 2, "trylock", LockMode.L1, "holder")
    target = node_at(cluster, 0)
    # On this link: trylock (op 0), then the release (1).
    drop_once(cluster, target, "setlock", 1)
    client, log = recovering_client(cluster)
    before = rounds(cluster, "recovery_phase1")
    # Positions 0 and 1 are taken, 2 is held: release and yield.
    assert not client.recover(0)
    assert log.count(target, "setlock") == 2
    assert log.count(node_at(cluster, 1), "setlock") == 1
    assert cluster.chaos.ledger_counts() == {"drop": 1}
    # Three trylocks, then one release round with its re-send.
    assert rounds(cluster, "recovery_phase1") - before == 4
    assert lmodes(cluster) == [
        LockMode.UNL, LockMode.UNL, LockMode.L1, LockMode.UNL, LockMode.UNL,
    ]


def test_crashed_nodes_release_is_not_resent():
    cluster = make_cluster()
    client, log = recovering_client(cluster)
    for j in range(N):
        client.rpc("recovery_phase1", 0, j, "trylock", LockMode.L1, CLIENT)
    crashed = cluster.crash_storage(cluster.slot_of(0, 1))
    client._unlock_all(0)
    assert log.count(crashed, "setlock") == 1
    replacement = node_at(cluster, 1)
    assert replacement != crashed
    assert log.count(replacement, "setlock") == 0
    assert rounds(cluster, "recovery_abort") == 1
    # The replacement holds no lock: it never saw the stripe.
    assert lmodes(cluster) == [LockMode.UNL] * N


def test_degraded_read_reports_a_crashed_node_after_one_message():
    cluster = make_cluster()
    client, log = recovering_client(cluster)
    results = capture_results(client)
    crashed = cluster.crash_storage(cluster.slot_of(0, 1))
    assert np.array_equal(client.read_degraded(0, 1), value(1))
    assert isinstance(results[0, 1], NodeUnavailableError)
    assert log.count(crashed, "get_state") == 1
    assert log.count(node_at(cluster, 1), "get_state") == 0
    assert len(log.calls) == N
    assert rounds(cluster, "read_degraded") == 1


def test_order_check_drops_a_crashed_node_after_one_message():
    cluster = make_cluster()
    client, log = recovering_client(cluster)
    results = capture_results(client)
    crashed = cluster.crash_storage(cluster.slot_of(0, 3))
    ntid = client._next_tid(0)
    _, done = client._check_ordering(0, ntid, None, {0, 3, 4})
    assert 3 not in done
    assert isinstance(results[0, 3], NodeUnavailableError)
    assert log.count(crashed, "checktid") == 1
    assert log.count(node_at(cluster, 3), "checktid") == 0
    assert len(log.calls) == 3


def test_dropped_fingerprint_probe_is_resent_within_its_round():
    """A read's fingerprint probe that must be answered is re-sent in
    its one ``audit`` round, as every one-position call is."""
    cluster = make_cluster()
    target = node_at(cluster, 1)
    # On this link: read (op 0), then the fingerprint probe (1).
    drop_once(cluster, target, "fingerprint", 1)
    client = cluster.protocol_client(CLIENT, ClientConfig(
        rpc_timeout=0.05, backoff=0.0005, backoff_cap=0.001,
        verified_reads=True,
    ))
    client.transport = log = CallLog(client.transport)
    assert np.array_equal(client.read(0, 1), value(1))
    assert log.calls == [(target, "read")] + [(target, "fingerprint")] * 2
    assert cluster.chaos.ledger_counts() == {"drop": 1}
    assert client.stats.rpc_timeouts == 1
    assert client.stats.verified_reads == 1
    assert rounds(cluster, "audit") == 1
