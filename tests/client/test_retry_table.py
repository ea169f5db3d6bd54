"""One call absorbs busy, stale and unbound outcomes from one table.

Each retryable outcome has its own bound, and every bound counts over
the whole call: a stale-placement refetch between two runs of sheds
does not hand the busy bound a fresh count.  A call that sees only one
kind of outcome makes exactly ``bound + 1`` attempts before the outcome
reaches the caller.  Every attempt is part of the call's one round, and
each retry of a stale or unbound outcome is traced once.
"""

from __future__ import annotations

import pytest

from repro.client.config import ClientConfig
from repro.client.protocol import BUSY_RETRY_LIMIT
from repro.core.cluster import Cluster
from repro.directory.local import UnknownSlotError
from repro.errors import NodeBusyError, StalePlacementError
from repro.obs import Observability


class ScriptedTransport:
    """Answers the first calls with the scripted exceptions, then hands
    every call to the real transport."""

    def __init__(self, inner, script: list[Exception]):
        self._inner = inner
        self._script = list(script)
        self.calls = 0

    def call(self, src, dst, op, *args, **kwargs):
        self.calls += 1
        if self._script:
            raise self._script.pop(0)
        return self._inner.call(src, dst, op, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class CountingUnboundDirectory:
    """A directory whose every lookup hits the unbound window."""

    def __init__(self, inner):
        self._inner = inner
        self.lookups = 0

    def node_id(self, slot: int) -> str:
        self.lookups += 1
        raise UnknownSlotError(f"slot {slot} is not bound")

    def __getattr__(self, name):
        return getattr(self._inner, name)


def busy() -> NodeBusyError:
    return NodeBusyError("storage-0")


def stale() -> StalePlacementError:
    return StalePlacementError("storage-0", 0, seen_gen=0, current_gen=1)


@pytest.fixture
def client():
    """A client with a placement cache (pool mode), so a stale answer
    is refetched rather than surfaced at once."""
    cluster = Cluster(
        2, 4, block_size=32, pool=6, seed=5,
        observability=Observability.create(),
    )
    client = cluster.protocol_client(
        "scripted", ClientConfig(backoff=0.0001, backoff_cap=0.0002)
    )
    assert client.placement is not None
    return client


def script(client, outcomes: list[Exception]) -> ScriptedTransport:
    transport = ScriptedTransport(client.transport, outcomes)
    client.transport = transport
    client.tracer.drain()
    return transport


def retries(client) -> list[tuple[str, str]]:
    """``(event, op)`` of each retry the client traced since
    :func:`script`."""
    return [
        (e.kind, e.detail["op"]) for e in client.tracer.drain()
        if e.source == client.client_id
    ]


def rounds(client) -> int:
    return client.metrics.sum_counter("rpc_rounds_total", kind="monitor")


class TestBoundsSpanTheCall:
    def test_stale_refetch_does_not_reset_the_busy_count(self, client):
        transport = script(client, [busy()] * 5 + [stale()] + [busy()] * 5)
        with pytest.raises(NodeBusyError):
            client.rpc("monitor", 0, 0, "probe")
        # The 9th shed ends the call: 5 sheds, the refetch, 4 sheds.
        assert client.stats.busy_rejections == BUSY_RETRY_LIMIT + 1
        assert client.stats.stale_refetches == 1
        assert transport.calls == BUSY_RETRY_LIMIT + 2
        assert retries(client) == [("placement.refetch", "probe")]
        assert rounds(client) == 1

    def test_mixed_outcomes_within_bounds_succeed(self, client):
        transport = script(client, [busy()] * 4 + [stale()] + [busy()] * 4)
        client.rpc("monitor", 0, 0, "probe")
        assert client.stats.busy_rejections == 8
        assert client.stats.stale_refetches == 1
        assert transport.calls == 10
        assert retries(client) == [("placement.refetch", "probe")]
        assert rounds(client) == 1


class TestSingleOutcomeAttempts:
    def test_busy_only(self, client):
        transport = script(client, [busy()] * 20)
        with pytest.raises(NodeBusyError):
            client.rpc("monitor", 0, 0, "probe")
        assert transport.calls == BUSY_RETRY_LIMIT + 1 == 9
        assert client.stats.busy_rejections == 9
        assert retries(client) == []
        assert rounds(client) == 1

    def test_stale_only(self, client):
        transport = script(client, [stale()] * 20)
        with pytest.raises(StalePlacementError):
            client.rpc("monitor", 0, 0, "probe")
        assert transport.calls == 4
        assert client.stats.stale_refetches == 3
        assert retries(client) == [("placement.refetch", "probe")] * 3
        assert rounds(client) == 1

    def test_unbound_only(self, client):
        directory = CountingUnboundDirectory(client.directory)
        client.directory = directory
        transport = script(client, [])
        with pytest.raises(UnknownSlotError):
            client.rpc("monitor", 0, 0, "probe")
        assert directory.lookups == 4
        assert transport.calls == 0
        assert client.stats.unbound_retries == 3
        assert retries(client) == [("directory.unbound_retry", "probe")] * 3
        assert rounds(client) == 1

    def test_stale_without_placement_cache_surfaces_at_once(self):
        client = Cluster(2, 4, block_size=32).protocol_client("static")
        assert client.placement is None
        transport = script(client, [stale()])
        with pytest.raises(StalePlacementError):
            client.rpc("monitor", 0, 0, "probe")
        assert transport.calls == 1
        assert client.stats.stale_refetches == 0


class TestFramesCountStaleAnswers:
    def test_stale_gc_frame_counts_one_refetch(self, client):
        """A frame's stale answer is counted where it is seen, once per
        stripe it invalidates."""
        from repro.client.gc import GcManager

        client.write(0, 0, [7] * 32)
        script(client, [stale()])
        assert GcManager(client).run_once() == 2  # the stale frame unanswered
        assert client.stats.stale_refetches == 1
