"""Microbench — interpreted work on the client's call path.

Counts the Python opcodes one operation executes, in every Python frame
it enters (client, transport, storage node), with ``sys.settrace``.  A
zero-delay in-process transport runs a round's frame legs on the
caller's thread, so the count covers every leg.  Unlike a
timer the count is deterministic, so it tells a few percent of extra
bookkeeping on the call path apart on any machine:

* ``read``, ``write`` (one block) and ``probe`` (a one-position
  :meth:`~repro.client.protocol.ProtocolClient.rpc`) on a 4-of-6
  volume of 1 KiB blocks;
* ``read_degraded`` of a healthy stripe on a 6-of-9 volume of 8 KiB
  blocks: one ``get_state`` frame round over nine positions;
* ``wire_read``, ``wire_swap`` and ``wire_add``: the TCP codec
  (:mod:`repro.net.wire`) encoding and decoding one such request and
  its answer, 1 KiB block payloads included.

Each count must stay within 5 % of its ceiling.  The ceilings are
CPython 3.11 counts (other versions compile to other opcodes, so there
the counts are only recorded).
"""

from __future__ import annotations

import sys

import numpy as np

from repro.client.gc import GcManager
from repro.core.cluster import Cluster
from repro.ids import BlockAddr, Tid
from repro.net import wire
from repro.net.message import Envelope
from repro.storage.state import (
    AddResult,
    AddStatus,
    LockMode,
    OpMode,
    ReadResult,
    SwapResult,
)

from benchmarks.conftest import bench_record as record
from benchmarks.conftest import print_table

#: Opcodes per operation on CPython 3.11.
CEILINGS = {
    "read": 1003, "write": 4676, "probe": 864, "read_degraded": 11108,
    "wire_read": 668, "wire_swap": 963, "wire_add": 942,
}
SLACK = 0.05


def _opcodes(op) -> int:
    """Opcodes one call of ``op`` executes."""
    count = 0

    def per_opcode(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return per_opcode

    def per_frame(frame, event, arg):
        frame.f_trace_opcodes = True
        return per_opcode

    previous = sys.gettrace()
    sys.settrace(per_frame)
    try:
        op()
    finally:
        sys.settrace(previous)
    return count


def _block(size: int, tag: int) -> np.ndarray:
    return ((np.arange(size, dtype=np.uint32) * 7 + tag) % 256).astype(np.uint8)


def _client(k: int, n: int, block_size: int):
    """A client of a fresh cluster whose stripe 0 is written."""
    client = Cluster(k, n, block_size=block_size, seed=1).protocol_client("c")
    for i in range(k):
        client.write(0, i, _block(block_size, i))
    return client


def _wire_round_trip(op: str, args: tuple, answer: list):
    """One request and its answer through the codec, both ways."""
    env = Envelope("read" if op == "read" else "write")

    def run():
        code, _, _, _ = wire.decode_request(
            wire.encode_request(op, (args,), env)[wire.PREFIX.size:]
        )
        wire.decode_answer(
            code, wire.encode_answer(code, answer)[wire.PREFIX.size:]
        )

    return run


def _wire_ops() -> dict:
    addr = BlockAddr("vol", 12, 1)
    block = _block(1024, 3)
    ntid, otid = Tid(41, 1, "bench-0"), Tid(40, 1, "bench-1")
    return {
        "wire_read": _wire_round_trip(
            "read", {addr: (None, ())}, [ReadResult(block, LockMode.UNL)]
        ),
        "wire_swap": _wire_round_trip(
            "swap", {addr: (None, (block, ntid))},
            [SwapResult(block, 0, otid, LockMode.UNL)],
        ),
        "wire_add": _wire_round_trip(
            "add", {addr.sibling(4): (None, (block, ntid, otid, 0))},
            [AddResult(AddStatus.OK, OpMode.NORM, LockMode.UNL)],
        ),
    }


def _measure() -> dict[str, int]:
    small = _client(4, 6, 1024)
    value = _block(1024, 9)
    wide = _client(6, 9, 8192)
    gc = GcManager(small)
    ops = {
        "read": lambda: small.read(0, 1),
        "write": lambda: small.write(0, 1, value),
        "probe": lambda: small.rpc("monitor", 0, 1, "probe"),
        "read_degraded": lambda: wide.read_degraded(0, 0),
    }
    counts = {}
    for name, op in ops.items():
        op()  # first-call work (lazy state, caches) stays out of the count
        # Collect the finished writes' tids, so every write meets the
        # same node state.
        gc.run_once()
        gc.run_once()
        counts[name] = _opcodes(op)
    for name, op in _wire_ops().items():
        op()
        counts[name] = _opcodes(op)
    return counts


def bench_call_path():
    """Opcodes per call-path operation stay within their ceilings."""
    counts = _measure()
    assert _measure() == counts  # deterministic
    python = "%d.%d" % sys.version_info[:2]
    print_table(
        f"Call-path opcodes per operation (CPython {python})",
        ["operation", "opcodes", "ceiling"],
        [[name, count, CEILINGS[name]] for name, count in counts.items()],
    )
    record("call_path", python=python, opcodes=counts, ceilings=CEILINGS)
    if sys.version_info[:2] == (3, 11):
        for name, count in counts.items():
            assert count <= CEILINGS[name] * (1 + SLACK), (name, count)
