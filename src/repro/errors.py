"""Exception hierarchy for the repro package."""

from __future__ import annotations


def _rebuild(cls: type, args: tuple, fields: dict) -> BaseException:
    """Unpickle an error without re-running its ``__init__``: restore the
    class, the rendered ``args`` and every attribute as they were.  The
    default path would re-call ``__init__(*args)``, i.e. with the
    message as its first field, which breaks every error whose
    constructor is not ``(message,)``."""
    exc = cls.__new__(cls)
    exc.args = args
    exc.__dict__.update(fields)
    return exc


class ReproError(Exception):
    """Base class for all errors raised by this package."""

    def __reduce__(self):
        # Survive pickling with fields intact.
        return _rebuild, (type(self), self.args, self.__dict__)


class NodeUnavailableError(ReproError):
    """An RPC target has crashed or is unreachable (fail-stop model).

    Under the paper's fail-stop assumption this is *detectable*: callers
    may treat it as authoritative evidence of failure and begin node
    remap / recovery.
    """

    def __init__(self, node_id: str, reason: str = "crashed"):
        super().__init__(f"node {node_id!r} unavailable: {reason}")
        self.node_id = node_id
        self.reason = reason


class PartitionedError(NodeUnavailableError):
    """The caller is partitioned from the target (switch failure etc.)."""

    def __init__(self, src: str, dst: str):
        super().__init__(dst, reason=f"partitioned from {src}")
        self.src = src


class RpcTimeoutError(NodeUnavailableError):
    """An RPC got no response within its deadline.

    Unlike a plain :class:`NodeUnavailableError` this is *not*
    authoritative evidence of failure: the target may be gray (slow but
    alive) and the request may even have been delivered and applied.
    Callers treat the node as *suspected* — retry, go degraded, and only
    remap/recover after repeated timeouts (``ClientConfig.suspicion_threshold``).
    Subclasses :class:`NodeUnavailableError` so every existing
    unavailability path also survives a timeout.
    """

    def __init__(self, node_id: str, op: str | None = None,
                 deadline: float | None = None):
        detail = f"no response to {op!r}" if op else "no response"
        if deadline is not None:
            detail += f" within {deadline:g}s"
        super().__init__(node_id, reason=detail)
        self.op = op
        self.deadline = deadline


class NodeBusyError(ReproError):
    """The target shed this request: its admission queue is full.

    Deliberately *not* a :class:`NodeUnavailableError` subclass — an
    overloaded node is alive and healthy, so callers must retry with
    backoff rather than remap the slot or start recovery.  Misreading
    overload as a crash would convert a load spike into spurious
    reconstruction traffic, making the overload worse.
    """

    def __init__(self, node_id: str, reason: str = "admission queue full"):
        super().__init__(f"node {node_id!r} busy: {reason}")
        self.node_id = node_id
        self.reason = reason


class StalePlacementError(ReproError):
    """The caller's cached placement generation is behind the node's.

    Raised by a storage node when a request carries a placement
    generation older than the one recorded for the stripe, or targets a
    block the node has *retired* (migrated away and no longer serves).
    Deliberately not a :class:`NodeUnavailableError` subclass: the node
    is alive and correct — the *client's map* is stale.  The client must
    invalidate its placement-cache entry for the stripe, refetch, and
    retry at the current placement; remapping the slot or starting
    recovery would be wrong (and wasteful) here.
    """

    def __init__(
        self,
        node_id: str,
        stripe: int,
        seen_gen: int | None,
        current_gen: int | None = None,
        retired: bool = False,
    ):
        what = "retired block" if retired else "stale placement generation"
        super().__init__(
            f"node {node_id!r} rejected {what} for stripe {stripe} "
            f"(caller gen {seen_gen}, node gen {current_gen})"
        )
        self.node_id = node_id
        self.stripe = stripe
        self.seen_gen = seen_gen
        self.current_gen = current_gen
        self.retired = retired


class IntegrityError(ReproError):
    """A block's content failed an end-to-end integrity check.

    The AJX fault model is fail-stop, but PR 4's WAL bit flips already
    proved the media can lie: a node may serve syntactically valid,
    *wrong* bytes.  Integrity errors are deliberately not
    :class:`NodeUnavailableError` subclasses — the node answered, its
    metadata is clean, only the payload is untrustworthy.  Remapping the
    slot would be wrong; the right responses are degraded decode
    (excluding the liar), repair via recovery, and quarantine.
    """


class CorruptionDetected(IntegrityError):
    """A specific block's bytes do not match its recorded fingerprint.

    ``source`` classifies where the damage happened: ``"wire"`` (the
    node's copy is fine, the RPC payload was mangled in flight — retry
    suffices), ``"media"`` (the stored bytes themselves are wrong —
    repair required), or ``"audit"`` (found by the sampling auditor,
    which by construction only sees at-rest damage).
    """

    def __init__(
        self,
        node_id: str,
        stripe: int,
        index: int,
        source: str,
        detail: str = "",
    ):
        super().__init__(
            f"corrupt block at stripe {stripe} index {index} on node "
            f"{node_id!r} (source: {source})" + (f": {detail}" if detail else "")
        )
        self.node_id = node_id
        self.stripe = stripe
        self.index = index
        self.source = source
        self.detail = detail


class CircuitOpenError(NodeUnavailableError):
    """Fast-fail raised by the client's circuit breaker while a node's
    circuit is open: the node is *believed* failed, so calls are not
    even attempted until a half-open probe is due.  Subclasses
    :class:`NodeUnavailableError` so every degraded-read/recovery path
    treats it exactly like the detected failure it stands in for."""

    def __init__(self, node_id: str):
        super().__init__(node_id, reason="circuit open")


class UnknownNodeError(ReproError):
    """RPC addressed to a node id the transport has never seen."""


class UnknownOperationError(ReproError):
    """RPC named an operation the target does not implement."""


class RecoveryFailedError(ReproError):
    """Recovery could not complete (e.g. too many failures to decode)."""


class DataLossError(RecoveryFailedError):
    """Fewer than k consistent blocks survive; the stripe is lost.

    This is the paper's fourth limitation materializing: more than
    t_p client partial writes combined with storage crashes.
    """


class ClientCrash(BaseException):
    """Simulated fail-stop death of a client at a named crash point.

    Deliberately a :class:`BaseException`, like ``KeyboardInterrupt``:
    a crashed client does not run cleanup, so this must sail through
    every ``except Exception`` handler in the protocol (which would
    otherwise release locks, retry the op, or record a graceful
    failure — none of which a dead client can do).  Only the crash
    harness that armed the point catches it; the harness then reports
    the death to the transport (``Cluster.crash_client``) so storage
    nodes expire the victim's locks, exactly as for a real crash.
    """

    def __init__(self, point: str, hit: int, detail: dict | None = None):
        super().__init__(f"client crashed at {point!r} (hit {hit})")
        self.point = point
        self.hit = hit
        self.detail = dict(detail or {})

    __reduce__ = ReproError.__reduce__


class DirectoryUnavailableError(ReproError):
    """A majority of directory replicas is unreachable.

    Raised by the replicated directory's quorum layer when prepare,
    accept or read cannot assemble a majority.  Deliberately not a
    :class:`NodeUnavailableError` subclass: the *storage* node a client
    was talking to may be perfectly healthy — it is the metadata plane
    that is down, and the right responses are cached-binding reads and
    refusing remaps, never recovery or slot remap of the data plane.
    """

    def __init__(self, op: str, detail: str = ""):
        message = f"directory quorum unavailable during {op}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)
        self.op = op
        self.detail = detail


class WriteAbortedError(ReproError):
    """A WRITE exhausted its retry budget without completing."""


class ReadFailedError(ReproError):
    """A READ exhausted its retry budget without returning a value."""
