"""Error fidelity audit: every error must survive the TCP wire intact.

``TcpTransport`` ships a server-side exception back to the caller as an
error answer in the wire codec's registered error taxonomy
(:mod:`repro.net.wire`: a class code, the error's ``args`` and its
attributes) and re-raises the decoded object.  Nothing in the package
pickles errors any more; the raw-pickle case guards ``errors.py``'s
``__reduce__`` for callers who do.  Without it an exception whose
``__init__`` signature differs from ``(message,)`` silently breaks
under pickle's *default* path — it is re-constructed with the rendered
message as its first field, corrupting attributes (this bit
``StalePlacementError`` and ``CorruptionDetected`` in earlier PRs before
they grew ``__reduce__``).

This suite is the proactive version of those fixes: one representative
instance of **every** concrete error class crosses a real TCP
round-trip and a raw pickle round-trip, and a registry-completeness
check fails the moment someone adds a new ``ReproError`` subclass
without registering a sample here — the next incident is caught at
review time, not in a soak.  ``tests/net/test_wire.py`` checks every
sample is in the codec's taxonomy.
"""

from __future__ import annotations

import pickle

import pytest

import repro.errors as errors_module
from repro.baselines.fab import ConcurrentWriteError
from repro.directory.local import UnknownSlotError
from repro.errors import ClientCrash, ReproError
from repro.net.tcp import TcpTransport
from repro.net.transport import RpcHandler

#: One representative, attribute-bearing sample per error class.  The
#: completeness test below walks ``ReproError.__subclasses__()``
#: recursively and fails on any concrete class missing from this table.
SAMPLES: dict[type, BaseException] = {
    errors_module.ReproError: errors_module.ReproError("base"),
    errors_module.NodeUnavailableError: errors_module.NodeUnavailableError(
        "storage-3", reason="crashed"
    ),
    errors_module.PartitionedError: errors_module.PartitionedError(
        "client-1", "storage-2"
    ),
    errors_module.RpcTimeoutError: errors_module.RpcTimeoutError(
        "storage-4", op="get_state", deadline=0.25
    ),
    errors_module.CircuitOpenError: errors_module.CircuitOpenError("storage-5"),
    errors_module.NodeBusyError: errors_module.NodeBusyError(
        "storage-6", reason="admission queue full"
    ),
    errors_module.StalePlacementError: errors_module.StalePlacementError(
        "storage-7", 3, seen_gen=1, current_gen=2, retired=True
    ),
    errors_module.IntegrityError: errors_module.IntegrityError("bad bytes"),
    errors_module.CorruptionDetected: errors_module.CorruptionDetected(
        "storage-8", 4, 1, "media", detail="crc mismatch"
    ),
    errors_module.UnknownNodeError: errors_module.UnknownNodeError("ghost"),
    errors_module.UnknownOperationError: errors_module.UnknownOperationError(
        "no such op"
    ),
    errors_module.RecoveryFailedError: errors_module.RecoveryFailedError(
        "too many failures"
    ),
    errors_module.DataLossError: errors_module.DataLossError("stripe lost"),
    errors_module.WriteAbortedError: errors_module.WriteAbortedError(
        "budget exhausted"
    ),
    errors_module.ReadFailedError: errors_module.ReadFailedError(
        "budget exhausted"
    ),
    errors_module.DirectoryUnavailableError: (
        errors_module.DirectoryUnavailableError(
            "prepare", "1/3 replicas reachable"
        )
    ),
    UnknownSlotError: UnknownSlotError("slot 9 is not bound"),
    ConcurrentWriteError: ConcurrentWriteError("ts (3, 'b') lost to (4, 'a')"),
    # Not a ReproError (BaseException by design) but it crosses the wire
    # when a victim's in-flight RPC dies at a crash point.
    ClientCrash: ClientCrash("write.after_swap", 2, {"stripe": 5}),
}

#: Attributes that must survive the round-trip, per class.  Classes not
#: listed are message-only.
FIELDS: dict[type, tuple[str, ...]] = {
    errors_module.NodeUnavailableError: ("node_id", "reason"),
    errors_module.PartitionedError: ("node_id", "src", "reason"),
    errors_module.RpcTimeoutError: ("node_id", "op", "deadline"),
    errors_module.CircuitOpenError: ("node_id", "reason"),
    errors_module.NodeBusyError: ("node_id", "reason"),
    errors_module.StalePlacementError: (
        "node_id", "stripe", "seen_gen", "current_gen", "retired",
    ),
    errors_module.CorruptionDetected: (
        "node_id", "stripe", "index", "source", "detail",
    ),
    errors_module.DirectoryUnavailableError: ("op", "detail"),
    ClientCrash: ("point", "hit", "detail"),
}


def all_error_classes() -> list[type]:
    """Every concrete error class shipped by the package."""
    seen: list[type] = [ReproError]
    frontier = [ReproError]
    while frontier:
        cls = frontier.pop()
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.append(sub)
                frontier.append(sub)
    seen.append(ClientCrash)
    return seen


def test_sample_registry_is_complete():
    missing = [cls for cls in all_error_classes() if cls not in SAMPLES]
    assert not missing, (
        f"error classes without a pickle-safety sample: "
        f"{[cls.__name__ for cls in missing]} — add one to SAMPLES"
    )


class Raiser(RpcHandler):
    """Raises whichever registered sample the op names."""

    def handle(self, op, *args, env=None):
        for cls, exc in SAMPLES.items():
            if cls.__name__ == op:
                raise exc
        raise AssertionError(f"no sample for {op}")


@pytest.fixture(scope="module")
def tcp():
    transport = TcpTransport()
    transport.register("server", Raiser())
    transport.register("client")
    yield transport
    transport.close()


# ClientCrash is excluded from the wire case on purpose: it is a
# BaseException modeling fail-stop death, and the TCP server's
# ``except Exception`` deliberately does NOT convert it into an error
# answer — a dead client never replies.  Its ``__reduce__`` is still
# covered by the raw-pickle case below.
WIRE_SAMPLES = [cls for cls in SAMPLES if cls is not ClientCrash]


@pytest.mark.parametrize(
    "cls", WIRE_SAMPLES, ids=lambda cls: cls.__name__
)
def test_round_trip_over_tcp(tcp, cls):
    original = SAMPLES[cls]
    with pytest.raises(BaseException) as info:
        tcp.call("client", "server", cls.__name__)
    caught = info.value
    assert type(caught) is type(original)
    assert str(caught) == str(original)
    for field in FIELDS.get(cls, ()):
        assert getattr(caught, field) == getattr(original, field), field


@pytest.mark.parametrize(
    "cls", list(SAMPLES), ids=lambda cls: cls.__name__
)
def test_round_trip_through_raw_pickle(cls):
    """The transport-independent core: default protocol, full fidelity."""
    original = SAMPLES[cls]
    clone = pickle.loads(pickle.dumps(original))
    assert type(clone) is type(original)
    assert str(clone) == str(original)
    for field in FIELDS.get(cls, ()):
        assert getattr(clone, field) == getattr(original, field), field
