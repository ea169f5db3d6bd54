"""The benchmark checks itself, at smoke scale (whole file under 10 s)."""

import json
import re
from pathlib import Path

import pytest

from bench import harness, schema, trace, workloads
from bench.trace import Span
from repro.core.volume import VolumeClient
from repro.obs import Observability

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [spec.name for spec in workloads.WORKLOADS]


# -- inputs ---------------------------------------------------------------


def test_same_seed_same_ops_other_seed_other_ops():
    spec = workloads.get("small-mixed-local")

    def ops(seed, client):
        stream = workloads.MixedStream(spec, seed, client)
        return stream.chunk(), stream.chunk()

    assert ops(11, 0) == ops(11, 0)
    assert ops(11, 0) != ops(12, 0)
    assert ops(11, 0) != ops(11, 1)


def test_payloads_are_a_function_of_seed_writer_block_version():
    first = workloads.Payloads(11, 1024)
    again = workloads.Payloads(11, 1024)
    other = workloads.Payloads(12, 1024)
    assert first.block(0, 5, 3) == again.block(0, 5, 3)
    assert len(first.block(0, 5, 3)) == 1024
    distinct = {
        first.block(0, 5, 3), first.block(1, 5, 3), first.block(0, 6, 3),
        first.block(0, 5, 4), other.block(0, 5, 3),
    }
    assert len(distinct) == 5
    assert first.extent(0, 10, 2, 1) == (
        first.block(0, 10, 1) + first.block(0, 11, 1)
    )


# -- counts ---------------------------------------------------------------


@pytest.mark.parametrize("name", NAMES)
def test_single_client_counts_repeat_exactly(name):
    """msgs_per_op, wire_bytes_per_user_byte and wal_syncs_per_write
    are ratios of these counters, so equal counters mean equal ratios."""
    spec = workloads.get(name).smoke()

    def counted():
        session = harness.Session(spec, 11, clients=1,
                                  observability=Observability.create())
        try:
            out, _ = harness.counted_prefix(session, rounds=1)
            assert session.failed == 0
            assert session.verify() == []
        finally:
            session.close()
        return out

    first = counted()
    assert first == counted()
    assert first["ops"] > 0 and first["msgs"] > 0 and first["user_bytes"] > 0
    assert (first["wal_appends"] > 0) == spec.durable


# -- tracing --------------------------------------------------------------


def test_self_time_subtracts_the_union_of_parallel_children():
    spans = [
        Span(1, 0, "core", "root", 0.0, 10.0, 1, 0),
        # two overlapping parallel children cover [2, 7]: 5, not 3 + 4
        Span(2, 1, "net", "a", 2.0, 5.0, 1, 0),
        Span(3, 1, "net", "b", 3.0, 7.0, 1, 0),
        # a child poking past its parent's end is clipped to [9, 10]
        Span(4, 1, "storage", "late", 9.0, 12.0, 1, 0),
        # grandchild: inside span 2 only
        Span(5, 2, "gf", "kernel", 2.5, 3.5, 1, 64),
    ]
    own = trace.self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(4.0)
    assert own[4] == pytest.approx(3.0)
    assert own[5] == pytest.approx(1.0)
    layers, names = trace.by_layer(spans)
    assert layers["net"] == pytest.approx(6.0)
    assert names["gf:kernel"] == {
        "layer": "gf", "calls": 1, "self_s": pytest.approx(1.0), "nbytes": 64,
    }


def test_tracer_records_layers_and_restores_the_program():
    spec = workloads.get("durable-tcp-mixed").smoke()
    original = VolumeClient.write_block
    session = harness.Session(spec, 11, clients=1)
    tracer = trace.Tracer()
    try:
        tracer.install(session.cluster.transport)
        try:
            session.window(rounds=1)
        finally:
            tracer.uninstall()
    finally:
        session.close()
    assert VolumeClient.write_block is original
    assert "call" not in vars(session.cluster.transport)
    spans = tracer.spans()
    by_id = {span.sid: span for span in spans}
    layers, _ = trace.by_layer(spans)
    for layer in ("core", "client", "net", "storage", "storage.wal", "gf",
                  "directory", "placement"):
        assert layers[layer] > 0, layer
    # Over TCP the handler runs on a server thread; it must still hang
    # under the net span addressed to its node, not under the op root.
    handlers = [span for span in spans if span.layer == "storage"]
    assert handlers
    assert all(by_id[span.parent].layer == "net" for span in handlers)
    roots = [span for span in spans if span.parent == 0]
    assert all(span.layer == "core" for span in roots)
    assert len({span.op for span in roots}) == len(roots)


# -- schema ---------------------------------------------------------------


def test_benchmark_json_is_valid_and_matches_the_code():
    assert schema.validate_benchmark(BENCHMARK) == []
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (spec.name, spec.why) for spec in workloads.WORKLOADS
    ]
    assert BENCHMARK["paths"] == ["bench"]
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(harness.GATED)
    pattern = re.compile(r"[A-Za-z0-9_.-]+\Z")
    for key in ("workloads", "end_to_end", "per_layer"):
        for entry in BENCHMARK[key]:
            assert pattern.match(entry["name"]), entry["name"]


def test_schema_rejects_malformed_documents():
    broken = json.loads(json.dumps(BENCHMARK))
    broken["end_to_end"][0]["bound"] = 0.5
    broken["workloads"][0]["name"] = "has space"
    errors = schema.validate_benchmark(broken)
    assert any("bound" in error for error in errors)
    assert any("bad name" in error for error in errors)
    result = {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}
    assert schema.validate_result(result, BENCHMARK, 0)


@pytest.mark.parametrize("name", NAMES)
def test_emitted_results_validate_against_benchmark_json(name):
    spec = workloads.get(name).smoke()
    session = harness.Session(spec, 11, clients=1,
                              observability=Observability.create())
    tracer = trace.Tracer()
    try:
        tracer.install(session.cluster.transport)
        try:
            counted, out = harness.counted_prefix(session, rounds=1)
        finally:
            tracer.uninstall()
    finally:
        session.close()
    for trace_flag, metrics in (
        (0, harness.end_to_end(spec, out, 1, 0.5, harness.peak_rss_mb())[0]),
        (1, harness.per_layer(spec, tracer.spans(), out, counted, 100.0)[0]),
    ):
        line = {"correct": True, "attempted": session.attempted,
                "failed": session.failed, "metrics": metrics}
        assert schema.validate_result(
            json.loads(json.dumps(line)), BENCHMARK, trace_flag
        ) == []


# -- verification ---------------------------------------------------------


def test_corrupted_read_back_flips_verify_ok():
    spec = workloads.get("small-mixed-local").smoke()
    session = harness.Session(spec, 11)
    session.window(rounds=1)
    assert session.failed == 0
    assert session.verify() == []
    honest = session.clients[0].read_block

    def corrupting(block):
        data = honest(block)
        return data[:-1] + bytes([data[-1] ^ 1]) if block == 7 else data

    problems = session.verify(read_block=corrupting)
    assert problems == ["block 7 holds no client's last write"]
    result = harness._result(problems, session.attempted, 0, {}, {})
    assert result["correct"] is False
