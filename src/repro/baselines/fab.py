"""FAB-style baseline (Frolund et al., "A decentralized algorithm for
erasure-coded virtual disks", DSN 2004) — simplified comparator.

What we preserve (the properties Fig. 1 and the throughput comparisons
rest on):

* every write contacts **all n** storage nodes of the stripe, in two
  rounds (order, then commit) — 4n messages, 2 round-trip latency;
* storage nodes keep a **log of old versions** with timestamps,
  garbage-collected after commit — the space overhead AJX avoids;
* reads contact k nodes and return the highest committed version —
  2k messages, 1 round trip;
* concurrent writes to the same stripe: the lower timestamp loses and
  returns an exception (the FAB behaviour the paper quotes).

What we simplify: no quorum voting (we require all n nodes up — the
baseline exists for failure-free performance comparison), no
coordinator hand-off, crash recovery elided.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.erasure.rs import ReedSolomonCode
from repro.errors import ReproError
from repro.net.message import NO_ENVELOPE, Envelope
from repro.net.rpc import pfor
from repro.net.transport import RpcHandler, Transport


class ConcurrentWriteError(ReproError):
    """A concurrent write to the same stripe won the timestamp race."""


@dataclass(order=True, frozen=True)
class Timestamp:
    counter: int
    client: str = ""


@dataclass
class _Versioned:
    """Per-block version log at a FAB node."""

    committed: list[tuple[Timestamp, np.ndarray]] = field(default_factory=list)
    pending: dict[Timestamp, np.ndarray] = field(default_factory=dict)
    ordered: Timestamp | None = None  # highest timestamp promised

    def latest(self) -> tuple[Timestamp, np.ndarray] | None:
        return self.committed[-1] if self.committed else None


class FabNode(RpcHandler):
    """One storage brick: order / write / commit / read / gc."""

    def __init__(self, node_id: str):
        self.node_id = node_id
        self._blocks: dict[tuple[int, int], _Versioned] = {}
        self._lock = threading.Lock()

    def handle(
        self, op: str, *args: object, env: Envelope = NO_ENVELOPE, **kwargs: object
    ) -> object:
        with self._lock:
            return getattr(self, op)(*args, **kwargs)

    def _slot(self, stripe: int, index: int) -> _Versioned:
        return self._blocks.setdefault((stripe, index), _Versioned())

    def order(self, stripe: int, index: int, ts: Timestamp) -> bool:
        """Round 1: promise not to accept lower timestamps."""
        slot = self._slot(stripe, index)
        if slot.ordered is not None and ts < slot.ordered:
            return False
        slot.ordered = ts
        return True

    def write(self, stripe: int, index: int, ts: Timestamp, block: np.ndarray) -> bool:
        """Round 2: log the new version (old versions retained)."""
        slot = self._slot(stripe, index)
        if slot.ordered is not None and ts < slot.ordered:
            return False
        slot.pending[ts] = np.array(block, dtype=np.uint8, copy=True)
        return True

    def commit(self, stripe: int, index: int, ts: Timestamp) -> bool:
        slot = self._slot(stripe, index)
        block = slot.pending.pop(ts, None)
        if block is None:
            return False
        slot.committed.append((ts, block))
        slot.committed.sort(key=lambda item: item[0])
        return True

    def read(self, stripe: int, index: int) -> tuple[Timestamp, np.ndarray] | None:
        return self._slot(stripe, index).latest()

    def gc_log(self, stripe: int, index: int) -> int:
        """Drop all but the latest committed version; returns #dropped."""
        slot = self._slot(stripe, index)
        dropped = max(0, len(slot.committed) - 1)
        slot.committed = slot.committed[-1:]
        return dropped

    def log_bytes(self) -> int:
        """Version-log space (the overhead AJX's design avoids)."""
        total = 0
        for slot in self._blocks.values():
            versions = len(slot.committed) + len(slot.pending)
            if slot.committed:
                total += sum(b.nbytes for _, b in slot.committed[:-1])
                total += sum(b.nbytes for b in slot.pending.values())
            total += 16 * versions  # timestamps + bookkeeping
        return total


class FabClient:
    """Client/coordinator for the FAB-style baseline."""

    def __init__(
        self,
        client_id: str,
        transport: Transport,
        node_ids: list[str],
        code: ReedSolomonCode,
        block_size: int = 1024,
    ):
        if len(node_ids) != code.n:
            raise ValueError(f"need {code.n} nodes, got {len(node_ids)}")
        self.client_id = client_id
        self.transport = transport
        self.node_ids = list(node_ids)
        self.code = code
        self.block_size = block_size
        self._counter = 0
        self._lock = threading.Lock()
        transport.register(client_id)

    def _ts(self) -> Timestamp:
        with self._lock:
            self._counter += 1
            return Timestamp(self._counter, self.client_id)

    def _call(self, j: int, op: str, *args: object) -> object:
        return self.transport.call(self.client_id, self.node_ids[j], op, *args)

    def write_block(self, stripe: int, index: int, value: np.ndarray) -> None:
        """Write one data block: reads the stripe, re-encodes, and runs
        the two-round protocol against **all n** nodes."""
        data = [
            self.read_block(stripe, i) if i != index else np.asarray(value, np.uint8)
            for i in range(self.code.k)
        ]
        self.write_stripe(stripe, data)

    def write_stripe(self, stripe: int, data_blocks: list[np.ndarray]) -> None:
        ts = self._ts()
        blocks = self.code.encode(data_blocks)
        # Round 1: order at all n nodes.
        acks = pfor(
            range(self.code.n), lambda j: self._call(j, "order", stripe, j, ts)
        )
        if not all(acks[j] is True for j in range(self.code.n)):
            raise ConcurrentWriteError(f"stripe {stripe}: lost ordering race")
        # Round 2: write new versions, then commit piggybacked.
        writes = pfor(
            range(self.code.n),
            lambda j: self._call(j, "write", stripe, j, ts, blocks[j]),
        )
        if not all(writes[j] is True for j in range(self.code.n)):
            raise ConcurrentWriteError(f"stripe {stripe}: write round rejected")
        pfor(range(self.code.n), lambda j: self._call(j, "commit", stripe, j, ts))

    def read_block(self, stripe: int, index: int) -> np.ndarray:
        """Read via the data node; fall back to k-node decode if empty."""
        result = self._call(index, "read", stripe, index)
        if result is not None:
            return result[1]
        return self.read_stripe(stripe)[index]

    def read_stripe(self, stripe: int) -> list[np.ndarray]:
        """Read any k nodes and decode (2k messages)."""
        results = pfor(
            range(self.code.k), lambda j: self._call(j, "read", stripe, j)
        )
        available = {
            j: res[1]
            for j, res in results.items()
            if res is not None and not isinstance(res, Exception)
        }
        for j in range(self.code.k):
            if j not in available:
                available[j] = np.zeros(self.block_size, dtype=np.uint8)
        return self.code.decode(available)

    def collect_garbage(self, stripe: int) -> int:
        dropped = pfor(
            range(self.code.n), lambda j: self._call(j, "gc_log", stripe, j)
        )
        return sum(d for d in dropped.values() if isinstance(d, int))


def build_fab(
    transport: Transport, code: ReedSolomonCode, prefix: str = "fab"
) -> list[str]:
    """Register n FAB nodes on a transport; returns their ids."""
    ids = []
    for j in range(code.n):
        node_id = f"{prefix}-{j}"
        transport.register(node_id, FabNode(node_id))
        ids.append(node_id)
    return ids
