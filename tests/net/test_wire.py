"""The TCP wire codec: every op round-trips, hostile frames are refused.

Three parts:

* **Round trips.** One request sample and one answer sample per storage
  op and per ``dir_*`` op decode to equal values, and a completeness
  check fails the moment an op is added without a layout (the pattern
  of ``test_error_pickling.SAMPLES``).  Seeded property tests cover the
  tagged layout and the frame layouts beyond the hand-written samples.
* **Hostile input.** Bytes that are not a well-formed frame, sent on a
  raw socket to a node's port, close the connection before the handler
  runs; a malformed answer reaches the client as NodeUnavailableError;
  a pickle payload is never unpickled.
* **The transport's use of it.** Only calls with a deadline touch the
  socket timeout, and an unregistered type is a TypeError at the sender.
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster import Cluster
from repro.directory.replica import DirectoryReplica, SlotBinding
from repro.errors import NodeUnavailableError, StalePlacementError
from repro.ids import BlockAddr, Tid
from repro.net import wire
from repro.net.message import NO_ENVELOPE, Envelope
from repro.net.tcp import _MAX_FRAME, TcpTransport
from repro.net.transport import RpcHandler
from repro.storage.node import StorageNode
from repro.storage.state import (
    AddResult,
    AddStatus,
    CheckTidStatus,
    FingerprintResult,
    LockMode,
    OpMode,
    ReadResult,
    StateSnapshot,
    SwapResult,
    TidEntry,
    TryLockResult,
)
from tests.net.test_error_pickling import FIELDS, SAMPLES

BLOCK = (np.arange(64, dtype=np.uint32) * 7 % 256).astype(np.uint8)
A0 = BlockAddr("vol", 3, 0)
A1 = BlockAddr("vol", 3, 5)
T1 = Tid(7, 0, "client-a")
T2 = Tid(8, 1, "client-b")
ENTRIES = frozenset({TidEntry(T1, 11, 1.5), TidEntry(T2, 12, 2.25)})
TAG = (4, "client-a")
TRACED = Envelope("write", ("c:w1", "c:s2", "c:w1"), 0.25)
ROOT = Envelope("recovery_phase1", ("c:r1", "c:r1", None), None)


def frame(*args, gen=None):
    """A two-address frame carrying ``args`` at each address."""
    return ({A0: (gen, args), A1: (None, args)},)


#: op -> (request args, envelope); every storage op and every dir_* op.
REQUESTS: dict[str, tuple[tuple, Envelope]] = {
    "read": (frame(gen=2), Envelope("read")),
    "swap": (frame(BLOCK, T1), TRACED),
    "add": (
        ({
            A0: (1, (BLOCK, T2, T1, 3)),
            A1: (1, (BLOCK, T2, None, 3, ((T1, None), (Tid(9, 2, "c"), T2)))),
        },),
        TRACED,
    ),
    "checktid": (frame(T2, None), NO_ENVELOPE),
    "trylock": (frame(LockMode.L1, "rec"), ROOT),
    "setlock": (frame(LockMode.L0, "rec"), Envelope(timeout=0.5)),
    "get_state": (frame(), Envelope("recovery_phase1")),
    "getrecent": (frame(LockMode.L1, "rec"), Envelope("recovery_phase2")),
    "reconstruct": (frame(frozenset({0, 2, 3}), BLOCK), TRACED),
    "finalize": (frame(5), NO_ENVELOPE),
    "gc_old": (frame({T1, T2}), Envelope("gc")),
    "gc_recent": (frame(frozenset({T1})), Envelope("gc")),
    "probe": (frame(), Envelope("monitor")),
    "set_generation": (frame(4, gen=3), NO_ENVELOPE),
    "retire": (frame(4), NO_ENVELOPE),
    "fingerprint": (frame(), Envelope("audit")),
    "dir_prepare": ((("slot", 3), TAG), Envelope("directory", None, 2.0)),
    "dir_accept": ((("slot", 3), TAG, SlotBinding("s-9", 2, True)), NO_ENVELOPE),
    "dir_apply": ((("gen", 7), TAG, 4), NO_ENVELOPE),
    "dir_read": ((("slot", 3),), NO_ENVELOPE),
    "dir_snapshot": ((), NO_ENVELOPE),
    "dir_sync": (
        ({("slot", 1): (TAG, SlotBinding("s-1", 0)), ("gen", 2): ((1, "x"), 3)},),
        NO_ENVELOPE,
    ),
}

STALE = StalePlacementError("s-2", 3, seen_gen=1, current_gen=2)

#: op -> one answer; storage ops answer a list, one item per address.
ANSWERS: dict[str, object] = {
    "read": [ReadResult(BLOCK, LockMode.UNL), ReadResult(None, LockMode.L0)],
    "swap": [
        SwapResult(BLOCK, 4, T1, LockMode.UNL),
        SwapResult(None, 4, None, LockMode.L1),
    ],
    "add": [
        AddResult(AddStatus.OK, OpMode.NORM, LockMode.L0),
        AddResult(AddStatus.ORDER, OpMode.RECONS, LockMode.EXP),
    ],
    "checktid": [CheckTidStatus.GC, CheckTidStatus.NOCHANGE],
    "trylock": [
        TryLockResult(True, LockMode.UNL),
        TryLockResult(False, LockMode.L1),
    ],
    "setlock": [None, STALE],
    "get_state": [
        StateSnapshot(
            OpMode.RECONS, frozenset({0, 1}), ENTRIES, frozenset(), BLOCK,
            "ab" * 16,
        ),
        StateSnapshot(OpMode.INIT, None, frozenset(), ENTRIES, None, None),
    ],
    "getrecent": [ENTRIES, frozenset()],
    "reconstruct": [3, STALE],
    "finalize": [None, None],
    "gc_old": [True, False],
    "gc_recent": [False, True],
    "probe": [
        (OpMode.NORM, LockMode.UNL, None, 0),
        (OpMode.NORM, LockMode.L0, 0.125, 2),
    ],
    "set_generation": [None, None],
    "retire": [None, STALE],
    "fingerprint": [
        FingerprintResult("ab" * 16, "cd" * 16, OpMode.NORM, True),
        FingerprintResult(None, "cd" * 16, OpMode.INIT, False),
    ],
    "dir_prepare": {
        "ok": True, "promised": TAG, "accepted": (TAG, SlotBinding("s-1", 1)),
        "committed": None,
    },
    "dir_accept": {"ok": False, "promised": (9, "other")},
    "dir_apply": {"ok": True},
    "dir_read": {"committed": ((2, "c"), 17)},
    "dir_snapshot": {"committed": {("slot", 1): (TAG, SlotBinding("s-1", 0))}},
    "dir_sync": {"adopted": 2},
}


def directory_ops() -> set[str]:
    return {
        name[len("op_"):] for name in dir(DirectoryReplica)
        if name.startswith("op_dir_")
    }


def same(a, b) -> bool:
    """Deep equality that compares arrays by content and dtype, and
    errors by class, args and attributes."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            type(a) is type(b) and a.dtype == b.dtype
            and np.array_equal(a, b)
        )
    if isinstance(a, BaseException):
        return (
            type(a) is type(b) and a.args == b.args
            and vars(a) == vars(b)
        )
    if isinstance(a, dict):
        return (
            type(a) is type(b) and a.keys() == b.keys()
            and all(same(a[key], b[key]) for key in a)
        )
    if isinstance(a, (tuple, list)):
        return (
            type(a) is type(b) and len(a) == len(b)
            and all(same(x, y) for x, y in zip(a, b))
        )
    return a == b and (type(a) is type(b) or {type(a), type(b)} <= {set, frozenset})


def round_trip_request(op, args, env=NO_ENVELOPE):
    raw = wire.encode_request(op, args, env)
    return wire.decode_request(raw[wire.PREFIX.size:])


def round_trip_answer(code, result):
    raw = wire.encode_answer(code, result)
    return wire.decode_answer(code, raw[wire.PREFIX.size:])


# -- completeness ----------------------------------------------------------


def test_every_op_has_a_layout_and_samples():
    ops = set(StorageNode.OPERATIONS) | directory_ops()
    assert ops == set(wire.FRAME_LAYOUTS) | set(wire.DIRECTORY_LAYOUTS), (
        "an op without a wire layout: add one to repro.net.wire"
    )
    assert ops == set(REQUESTS) == set(ANSWERS), (
        "an op without a round-trip sample: add one to REQUESTS/ANSWERS"
    )


def test_every_error_class_is_registered():
    missing = [cls for cls in SAMPLES if cls not in wire.registry().errors]
    assert not missing, f"errors the wire cannot carry: {missing}"


# -- round trips -----------------------------------------------------------


@pytest.mark.parametrize("op", sorted(REQUESTS))
def test_request_round_trips_under_its_own_code(op):
    args, env = REQUESTS[op]
    code, got_op, got_args, got_env = round_trip_request(op, args, env)
    assert code == wire.OPS.index(op) != 0
    assert got_op == op
    assert got_env == env
    assert same(got_args, args)


@pytest.mark.parametrize("op", sorted(ANSWERS))
def test_answer_round_trips(op):
    failed, value = round_trip_answer(wire.OPS.index(op), ANSWERS[op])
    assert not failed
    assert same(value, ANSWERS[op])


def test_decoded_blocks_are_writable_views():
    args, env = REQUESTS["swap"]
    _, _, (decoded,), _ = round_trip_request("swap", args, env)
    v, _ = decoded[A0][1]
    assert v.flags.writeable and v.dtype == np.uint8


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)
def test_error_taxonomy_round_trips(cls):
    raw = wire.encode_error(SAMPLES[cls])
    failed, caught = wire.decode_answer(0, raw[wire.PREFIX.size:])
    assert failed
    assert type(caught) is cls
    assert str(caught) == str(SAMPLES[cls])
    for field in FIELDS.get(cls, ()):
        assert getattr(caught, field) == getattr(SAMPLES[cls], field), field


def test_an_error_the_wire_cannot_carry_goes_as_a_type_error():
    class Private(Exception):
        pass

    raw = wire.encode_error(Private("x"))
    failed, caught = wire.decode_answer(0, raw[wire.PREFIX.size:])
    assert failed and type(caught) is TypeError
    assert "Private" in str(caught)


def test_calls_off_the_registered_shape_use_the_generic_form():
    code, op, args, _ = round_trip_request("fingerprint", ())
    assert (code, op, args) == (0, "fingerprint", ())
    code, op, args, _ = round_trip_request("dir_read", (1, 2))
    assert (code, op, args) == (0, "dir_read", (1, 2))


scalars = (
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False) | st.binary(max_size=8)
    | st.sampled_from(list(LockMode) + list(OpMode))
)
hashables = st.recursive(
    scalars,
    lambda inner: st.tuples(inner, inner) | st.frozensets(inner, max_size=3),
    max_leaves=6,
)
values = st.recursive(
    scalars
    | st.binary(max_size=16).map(lambda raw: np.frombuffer(raw, np.uint8).copy())
    | st.builds(Tid, st.integers(0, 2**40), st.integers(0, 9), st.text(max_size=6)),
    lambda inner: (
        st.lists(inner, max_size=3) | st.tuples(inner, inner)
        | st.dictionaries(hashables, inner, max_size=3)
        | st.frozensets(hashables, max_size=3)
    ),
    max_leaves=12,
)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(values)
def test_tagged_values_round_trip(value):
    code, op, (got,), _ = round_trip_request("echo", (value,))
    assert (code, op) == (0, "echo")
    assert same(got, value)
    failed, answer = round_trip_answer(0, value)
    assert not failed and same(answer, value)


tids = st.builds(Tid, st.integers(0, 2**62), st.integers(0, 255), st.text(max_size=10))
optional_tids = st.none() | tids


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    gen=st.none() | st.integers(0, 2**40),
    stripe=st.integers(0, 2**40),
    index=st.integers(-1, 255),
    block=st.binary(max_size=64),
    ntid=tids,
    otid=optional_tids,
    epoch=st.integers(0, 2**31),
    more=st.none() | st.lists(st.tuples(tids, optional_tids), max_size=4),
    env=st.builds(
        Envelope,
        st.none() | st.text(max_size=12),
        st.none() | st.tuples(st.text(max_size=5), st.text(max_size=5),
                              st.none() | st.text(max_size=5)),
        st.none() | st.floats(0, 100),
    ),
)
def test_add_frames_round_trip(gen, stripe, index, block, ntid, otid, epoch,
                               more, env):
    v = np.frombuffer(block, np.uint8)
    args = (v, ntid, otid, epoch) + (() if more is None else (tuple(more),))
    sent = ({BlockAddr("v", stripe, index): (gen, args)},)
    code, op, got, got_env = round_trip_request("add", sent, env)
    assert op == "add" and code != 0
    assert got_env == env
    assert same(got, sent)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    opmode=st.sampled_from(list(OpMode)),
    recons=st.none() | st.frozensets(st.integers(0, 30), max_size=6),
    lists=st.tuples(*[st.frozensets(
        st.builds(TidEntry, tids, st.integers(0, 2**40), st.floats(0, 1e9)),
        max_size=4,
    )] * 2),
    block=st.none() | st.binary(max_size=32),
    fp=st.none() | st.text(max_size=32),
)
def test_state_snapshots_round_trip(opmode, recons, lists, block, fp):
    blk = None if block is None else np.frombuffer(block, np.uint8)
    snap = StateSnapshot(opmode, recons, *lists, blk, fp)
    failed, (got,) = round_trip_answer(wire.OPS.index("get_state"), [snap])
    assert not failed and same(got, snap)


@pytest.mark.parametrize("value", [
    {1, 2}, object(), np.zeros(3, dtype=np.int32), np.zeros((2, 2), np.uint8),
    bytearray(b"x"),
])
def test_unregistered_types_are_a_type_error_at_the_sender(value):
    with pytest.raises(TypeError):
        wire.encode_request("echo", (value,))


def test_a_frame_value_off_its_layout_is_a_type_error_at_the_sender():
    with pytest.raises(TypeError):
        wire.encode_request("swap", ({A0: (None, (b"bytes", T1))},))
    with pytest.raises(TypeError):
        wire.encode_request("read", ({A0: (None, (1,))},))
    with pytest.raises(TypeError):
        wire.encode_answer(wire.OPS.index("add"), ["not an AddResult"])


# -- hostile input -----------------------------------------------------------


class Spy(RpcHandler):
    """Records every call that reaches it and echoes its arguments."""

    def __init__(self):
        self.calls = []

    def handle(self, op, *args, env=None):
        self.calls.append(op)
        return list(args) if op == "echo" else [None] * len(args[0])


@pytest.fixture
def served():
    transport = TcpTransport()
    spy = Spy()
    transport.register("node", spy)
    transport.register("client")
    yield transport, spy
    transport.close()


def body(op, args, env=NO_ENVELOPE) -> bytearray:
    return wire.encode_request(op, args, env)[wire.PREFIX.size:]


def framed(payload: bytes) -> bytes:
    return wire.PREFIX.pack(len(payload)) + bytes(payload)


#: Offset of the first address's first argument field (setlock's lock
#: mode, swap's block length) in a one-address body under no envelope.
FIRST_FIELD = wire._HEAD.size + 4 + wire._ADDR.size + len(A0.volume)


def with_byte(raw: bytearray, offset: int, value: int) -> bytearray:
    raw = bytearray(raw)
    raw[offset] = value
    return raw


_FLAG = []


def set_flag():
    _FLAG.append("ran")
    return "unpickled"


class Booby:
    def __reduce__(self):
        return set_flag, ()


def swap_body() -> bytearray:
    return body("swap", ({A0: (None, (BLOCK, T1))},))


def checktid_body() -> bytearray:
    """Ends with the otid's presence flag (0: None)."""
    return body("checktid", ({A0: (None, (T1, None))},))


HOSTILE = {
    # Prefix promises 100 bytes; 10 arrive, then the sender stops.
    "truncated": wire.PREFIX.pack(100) + b"\x00" * 10,
    "over_max_frame": wire.PREFIX.pack(_MAX_FRAME + 1),
    "unknown_op_code": framed(with_byte(body("read", frame()), 0, 250)),
    "unknown_type_tag": framed(
        body("echo", ()) [:-5] + struct.pack("<BI", wire.T_TUPLE, 1) + b"\x63"
    ),
    "flag_out_of_range": framed(
        with_byte(checktid_body(), len(checktid_body()) - 1, 2)
    ),
    "enum_index_out_of_range": framed(
        with_byte(body("setlock", ({A0: (None, (LockMode.L0, "c"))},)),
                  FIRST_FIELD, 9)
    ),
    # A block whose length prefix is not its byte count: one short of
    # the 64 bytes that follow, or longer than the frame.
    "block_length_off_by_one": framed(
        with_byte(swap_body(), FIRST_FIELD, len(BLOCK) - 1)
    ),
    "block_longer_than_frame": framed(swap_body()[:-30]),
    # Bytes the layout does not account for after the last field.
    "trailing_bytes": framed(swap_body() + b"\x00" * 3),
    "pickle": framed(pickle.dumps(("echo", (Booby(),), NO_ENVELOPE))),
}


def closed_without_answer(sock: socket.socket) -> bool:
    sock.settimeout(5.0)
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:
        return True


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_request_closes_the_connection_unserved(served, name):
    transport, spy = served
    port = transport._servers["node"].port
    _FLAG.clear()
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
        sock.sendall(HOSTILE[name])
        if name == "truncated":
            sock.shutdown(socket.SHUT_WR)
        assert closed_without_answer(sock)
    assert spy.calls == []
    assert _FLAG == []
    # The node still serves well-formed calls on a fresh connection.
    assert transport.call("client", "node", "echo", 1) == [1]
    assert spy.calls == ["echo"]


def test_well_formed_request_on_a_raw_socket_is_served(served):
    """The hostile cases differ from a served frame only where named."""
    transport, spy = served
    port = transport._servers["node"].port
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
        sock.sendall(framed(swap_body()))
        prefix = sock.recv(wire.PREFIX.size, socket.MSG_WAITALL)
        (length,) = wire.PREFIX.unpack(prefix)
        answer = sock.recv(length, socket.MSG_WAITALL)
    # The spy's answer does not fit swap's layout, so it comes back as
    # the TypeError that says so: a typed error, not a dropped stream.
    failed, value = wire.decode_answer(wire.OPS.index("swap"), bytearray(answer))
    assert failed and type(value) is TypeError
    assert spy.calls == ["swap"]


class _RawServer:
    """Answers every request with fixed bytes, standing in for a node."""

    def __init__(self, answer: bytes):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.answer = answer
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self):
        try:
            conn, _ = self.listener.accept()
        except OSError:
            return
        with conn:
            conn.recv(1 << 16)
            conn.sendall(self.answer)

    def close(self):
        self.listener.close()


ok_read = bytes(wire.encode_answer(
    wire.OPS.index("read"), [ReadResult(BLOCK, LockMode.UNL)]
))
BAD_ANSWERS = {
    "truncated": ok_read[:-10],
    "unknown_status": framed(b"\x07" + ok_read[5:]),
    "lock_index_out_of_range": framed(with_byte(bytearray(ok_read[4:]), 6, 9)),
    "trailing_bytes": framed(ok_read[4:] + b"\x00"),
    "pickle": framed(pickle.dumps(("ok", Booby()))),
}


@pytest.mark.parametrize("name", sorted(BAD_ANSWERS))
def test_malformed_answer_is_node_unavailable(name):
    transport = TcpTransport()
    transport.register("client")
    transport.register("node")
    fake = transport._servers["node"] = _RawServer(BAD_ANSWERS[name])
    _FLAG.clear()
    try:
        with pytest.raises(NodeUnavailableError):
            transport.call(
                "client", "node", "read", {A0: (None, ())},
                env=Envelope(timeout=5.0),
            )
    finally:
        fake.close()
        transport.close()
    assert _FLAG == []


def test_short_block_reaches_the_node_as_a_typed_error():
    """A well-formed frame whose block is not the volume's block size
    comes back as the node's ValueError, and the block is untouched."""
    transport = TcpTransport()
    cluster = Cluster(k=2, n=4, block_size=64, transport=transport)
    try:
        vol = cluster.client("app")
        vol.write_block(0, b"kept")
        client = vol.protocol
        loc = cluster.layout.locate(0)
        with pytest.raises(ValueError, match="block size is 64"):
            transport.call(
                client.client_id, cluster.node_for_slot(loc.node).node_id,
                "swap",
                {BlockAddr(client.volume, loc.stripe, loc.data_index):
                 (None, (np.zeros(10, np.uint8), Tid(99, 0, "x")))},
            )
        assert vol.read_block(0)[:4] == b"kept"
    finally:
        transport.close()


# -- the transport's use of the codec ------------------------------------------


class CountingSocket:
    """Wraps a client socket and counts ``settimeout`` calls."""

    def __init__(self, sock):
        self.sock = sock
        self.timeouts = []

    def settimeout(self, value):
        self.timeouts.append(value)
        self.sock.settimeout(value)

    def __getattr__(self, name):
        return getattr(self.sock, name)


def test_only_calls_with_a_deadline_set_the_socket_timeout(served):
    transport, _ = served
    transport.call("client", "node", "echo", 1)
    key = ("client", "node")
    counting = transport._conns[key] = CountingSocket(transport._conns[key])
    for _ in range(3):
        transport.call("client", "node", "echo", 1)
    assert counting.timeouts == []
    transport.call("client", "node", "echo", 1, env=Envelope(timeout=5.0))
    assert counting.timeouts == [5.0, None]


def test_an_unregistered_argument_never_leaves_the_sender(served):
    transport, spy = served
    with pytest.raises(TypeError):
        transport.call("client", "node", "echo", {1, 2})
    assert spy.calls == []
