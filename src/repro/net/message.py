"""Message bookkeeping: the call envelope and payload-size estimation.

The paper's Fig. 1 compares protocols by *message counts* and *bytes on
the wire*; to validate those columns against the real protocol the
transports count every RPC, with an estimated wire size, in the metrics
registry.  Estimation rules: block payloads dominate (numpy arrays count
their exact byte length), everything else counts a small fixed
header-ish size.  Only an RPC's operation arguments are sized — its
:class:`Envelope` header never is — and only when a live registry is
there to count the size.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import NamedTuple

import numpy as np

#: Assumed fixed cost of scalar arguments / headers, in bytes.
SCALAR_BYTES = 8


class Envelope(NamedTuple):
    """What an RPC carries besides its operation and arguments.

    Built once by the caller and handed unchanged (or narrowed with
    ``_replace``) through every layer as the keyword-only
    ``env=`` argument of ``Transport.call`` / ``broadcast`` and
    ``RpcHandler.handle``, the only keyword argument on the wire.  Layers
    read it; none strips it, and it is never part of the sized payload,
    so byte accounting, wire frames and seeded digests are the same
    whatever the header holds.  A storage node's placement stamp is not
    here: one frame can span stripes, so it rides per address in the
    frame (:meth:`~repro.storage.node.StorageNode.handle`).

    * ``kind`` — the logical operation the RPC serves (write, read,
      recovery_phase1, gc, ...), the wire-accounting label;
    * ``trace`` — ``(trace_id, span_id, parent_span)`` of the caller's
      span, echoed by traced nodes;
    * ``timeout`` — the round trip's deadline in seconds (None waits
      indefinitely, the original fail-stop model).
    """

    kind: str | None = None
    trace: tuple | None = None
    timeout: float | None = None


#: The header of a call that sets nothing (tests, baselines, raw pokes).
NO_ENVELOPE = Envelope()


def estimate_size(obj: object) -> int:
    """Rough wire size of an RPC argument or result, in bytes."""
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj)
    if isinstance(obj, (int, float, bool)):
        return SCALAR_BYTES
    if isinstance(obj, dict):
        return sum(estimate_size(k) + estimate_size(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(estimate_size(item) for item in obj)
    if is_dataclass(obj) and not isinstance(obj, type):
        return sum(estimate_size(getattr(obj, f.name)) for f in fields(obj))
    return SCALAR_BYTES
