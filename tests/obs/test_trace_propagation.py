"""Causal trace propagation: client write -> node spans, end to end."""

from __future__ import annotations

from repro.client.config import ClientConfig, WriteStrategy
from repro.core.cluster import Cluster
from repro.obs import (
    Observability,
    TraceContext,
    TraceIdAllocator,
    build_span_tree,
    render_span_tree,
    trace_ids,
)


def make_observed_cluster(**client_kwargs):
    obs = Observability.create()
    cluster = Cluster(k=2, n=3, block_size=64, observability=obs)
    config = ClientConfig(**client_kwargs) if client_kwargs else None
    volume = cluster.client("c1", config)
    return obs, cluster, volume


class TestAllocator:
    def test_root_and_child_ids(self):
        alloc = TraceIdAllocator("c1")
        root = alloc.new_trace("w")
        assert root.trace_id == "c1:w1"
        assert root.span_id == root.trace_id  # root span IS the trace
        child = alloc.child(root)
        assert child.trace_id == "c1:w1"
        assert child.parent_span == root.span_id
        assert child.span_id == "c1:s1"
        assert alloc.new_trace("w").trace_id == "c1:w2"

    def test_wire_round_trip(self):
        ctx = TraceContext("t", "s", "p")
        assert ctx.wire() == ("t", "s", "p")
        assert ctx.to_detail() == {"trace_id": "t", "span": "s", "parent": "p"}


class TestWriteSpanTree:
    def test_full_write_reconstructs_as_span_tree(self):
        """The acceptance shape: one client write on a 3-node cluster
        drains into a complete span tree — client op at the root, the
        data-node swap beneath it, per-redundant-node adds beneath
        that — using the drained events alone."""
        obs, _cluster, volume = make_observed_cluster()
        volume.write_block(0, b"traced payload")

        events = obs.tracer.drain()  # the ring is the only input
        ids = trace_ids(events)
        assert ids == ["c1:w1"]
        root = build_span_tree(events, "c1:w1")
        assert root is not None

        kinds = {e.kind for e in root.events}
        assert kinds == {"write.begin", "write.end"}
        assert root.source == "c1"

        assert len(root.children) == 1
        swap = root.children[0]
        assert {e.kind for e in swap.events} == {"node.swap"}
        assert swap.source.startswith("node:storage-")
        assert swap.events[0].detail["parent"] == root.span_id
        assert swap.events[0].detail["ok"] is True

        # k=2-of-3: one redundant node, so exactly one add child.
        assert len(swap.children) == 1
        add = swap.children[0]
        assert {e.kind for e in add.events} == {"node.add"}
        assert add.events[0].detail["parent"] == swap.span_id
        assert add.events[0].detail["status"] == "OK"
        assert add.source != swap.source

    def test_render_shows_whole_tree(self):
        obs, _cluster, volume = make_observed_cluster()
        volume.write_block(0, b"x")
        tree = build_span_tree(obs.tracer.events(), "c1:w1")
        text = render_span_tree(tree)
        assert "write.begin,write.end" in text
        assert "node.swap" in text
        assert "node.add" in text
        # Indentation encodes causality: swap under root, add under swap.
        lines = text.splitlines()
        assert lines[1].startswith("  ") and "node.swap" in lines[1]
        assert lines[2].startswith("    ") and "node.add" in lines[2]

    def test_writes_get_distinct_trace_ids(self):
        obs, _cluster, volume = make_observed_cluster()
        volume.write_block(0, b"a")
        volume.write_block(1, b"b")
        assert trace_ids(obs.tracer.events()) == ["c1:w1", "c1:w2"]

    def test_broadcast_adds_share_one_child_span(self):
        """§3.11 broadcast: one frame leaves the client, so all
        receiving nodes report into one shared add span, distinguished
        by their ``node`` detail."""
        obs, _cluster, volume = make_observed_cluster(
            strategy=WriteStrategy.BROADCAST
        )
        volume.write_block(0, b"broadcast me")
        root = build_span_tree(obs.tracer.drain(), "c1:w1")
        assert root is not None and len(root.children) == 1
        swap = root.children[0]
        add_spans = swap.children
        assert len(add_spans) == 1  # ONE span id for the whole broadcast
        add_events = [e for e in add_spans[0].events if e.kind == "node.add"]
        nodes = {e.detail["node"] for e in add_events}
        assert len(nodes) == len(add_events)  # each receiver tagged itself

    def test_untraced_write_emits_nothing(self):
        cluster = Cluster(k=2, n=3, block_size=64)  # no observability
        volume = cluster.client("c1")
        volume.write_block(0, b"silent")
        # Nodes saw no envelope trace and hold NULL sinks.
        for node in cluster._nodes.values():
            assert node.tracer.enabled is False

    def test_partial_trace_gets_synthetic_root(self):
        """Node-side events whose client-side root was lost (ring
        overflow) still build a browsable tree under a synthetic root."""
        obs, _cluster, volume = make_observed_cluster()
        volume.write_block(0, b"x")
        events = [e for e in obs.tracer.events() if e.kind.startswith("node.")]
        root = build_span_tree(events, "c1:w1")
        assert root is not None
        text = render_span_tree(root)
        assert "node.swap" in text and "node.add" in text


class TestAgentSourceTagging:
    def test_monitor_and_gc_events_are_source_tagged(self):
        obs, cluster, volume = make_observed_cluster()
        volume.write_block(0, b"x")
        volume.collect_garbage()
        crashed_slot = cluster.layout.locate(0).node
        cluster.crash_storage(crashed_slot)

        from repro.client.monitor import Monitor

        monitor = Monitor(volume.protocol)
        report = monitor.sweep([cluster.layout.locate(0).stripe])
        assert report.recovered_stripes
        sources = {e.source for e in obs.tracer.events()}
        assert "gc:c1" in sources
        assert "monitor:c1" in sources


class TestCriticalPath:
    def test_write_critical_path_descends_to_a_leaf(self):
        """The dominant leg of a write is never the root itself: the
        chain must run root -> swap -> the slowest add, because the
        client's own end event always closes after the fan-out."""
        from repro.obs import critical_path

        obs, _cluster, volume = make_observed_cluster()
        volume.write_block(0, b"critical path")
        root = build_span_tree(obs.tracer.drain(), "c1:w1")
        path = critical_path(root)
        assert path.spans[0] is root
        assert len(path.spans) >= 2
        assert not path.dominant.children  # descended all the way down
        leg_kinds = {e.kind for e in path.dominant.events}
        assert "node.add" in leg_kinds or "node.swap" in leg_kinds
        assert path.duration >= 0
        text = path.describe()
        assert "write.begin" in text.splitlines()[0]

    def test_tie_break_is_deterministic(self):
        from repro.obs import critical_path

        obs, _cluster, volume = make_observed_cluster()
        volume.write_block(0, b"tie break")
        events = obs.tracer.drain()
        first = critical_path(build_span_tree(events, "c1:w1"))
        second = critical_path(build_span_tree(events, "c1:w1"))
        assert [s.span_id for s in first.spans] == [
            s.span_id for s in second.spans
        ]
