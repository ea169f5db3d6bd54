"""GWGR-style baseline (Goodson, Wylie, Ganger, Reiter — "Efficient
byzantine-tolerant erasure-coded storage", DSN 2004) — simplified
comparator.

What we preserve:

* writes modify the **entire stripe at once** (minimum granularity k
  blocks); a single-block update is read-modify-write of the stripe,
  and — as the paper points out — that read-modify-write is *not*
  atomic under concurrency (the lost-update test demonstrates it);
* a write is two rounds against all n nodes (fetch latest logical
  timestamp, then store new versions) — 4n messages, 2 round trips;
* reads fetch from **all n** nodes (nB read bandwidth, 2n messages)
  and return the blocks of the highest timestamp present at a
  candidate set, decoding data from any k of them;
* nodes keep a version log, garbage-collected.

What we simplify: no Byzantine fault tolerance (no crosschecksums or
validation beyond timestamps), no partial-quorum repair.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.erasure.rs import ReedSolomonCode
from repro.net.message import NO_ENVELOPE, Envelope
from repro.net.rpc import pfor
from repro.net.transport import RpcHandler, Transport


@dataclass(order=True, frozen=True)
class LogicalTime:
    counter: int
    client: str = ""


@dataclass
class _VersionLog:
    versions: dict[LogicalTime, np.ndarray] = field(default_factory=dict)

    def latest_time(self) -> LogicalTime | None:
        return max(self.versions) if self.versions else None


class GwgrNode(RpcHandler):
    """One storage node: get_time / store / read_versions / gc."""

    def __init__(self, node_id: str):
        self.node_id = node_id
        self._stripes: dict[tuple[int, int], _VersionLog] = {}
        self._lock = threading.Lock()

    def handle(
        self, op: str, *args: object, env: Envelope = NO_ENVELOPE, **kwargs: object
    ) -> object:
        with self._lock:
            return getattr(self, op)(*args, **kwargs)

    def _slot(self, stripe: int, index: int) -> _VersionLog:
        return self._stripes.setdefault((stripe, index), _VersionLog())

    def get_time(self, stripe: int, index: int) -> LogicalTime | None:
        return self._slot(stripe, index).latest_time()

    def store(self, stripe: int, index: int, ts: LogicalTime, block: np.ndarray) -> bool:
        self._slot(stripe, index).versions[ts] = np.array(
            block, dtype=np.uint8, copy=True
        )
        return True

    def read_versions(
        self, stripe: int, index: int
    ) -> tuple[LogicalTime, np.ndarray] | None:
        log = self._slot(stripe, index)
        ts = log.latest_time()
        if ts is None:
            return None
        return ts, log.versions[ts]

    def gc_log(self, stripe: int, index: int) -> int:
        log = self._slot(stripe, index)
        ts = log.latest_time()
        dropped = max(0, len(log.versions) - 1)
        if ts is not None:
            log.versions = {ts: log.versions[ts]}
        return dropped

    def log_bytes(self) -> int:
        total = 0
        for log in self._stripes.values():
            extra = max(0, len(log.versions) - 1)
            if extra:
                sizes = sorted(b.nbytes for b in log.versions.values())
                total += sum(sizes[:extra])
            total += 16 * len(log.versions)
        return total


class GwgrClient:
    """Client for the GWGR-style baseline (full-stripe granularity)."""

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
        transport.register(client_id)

    def _call(self, j: int, op: str, *args: object) -> object:
        return self.transport.call(self.client_id, self.node_ids[j], op, *args)

    def write_stripe(self, stripe: int, data_blocks: list[np.ndarray]) -> None:
        """Round 1: learn the latest logical time from all n nodes;
        round 2: store the freshly encoded stripe at time+1."""
        times = pfor(range(self.code.n), lambda j: self._call(j, "get_time", stripe, j))
        known = [t for t in times.values() if isinstance(t, LogicalTime)]
        top = max(known).counter if known else 0
        ts = LogicalTime(top + 1, self.client_id)
        blocks = self.code.encode([np.asarray(b, np.uint8) for b in data_blocks])
        pfor(
            range(self.code.n),
            lambda j: self._call(j, "store", stripe, j, ts, blocks[j]),
        )

    def read_stripe(self, stripe: int) -> list[np.ndarray]:
        """Fetch versions from all n nodes, take the highest complete
        timestamp, decode its data blocks."""
        results = pfor(
            range(self.code.n), lambda j: self._call(j, "read_versions", stripe, j)
        )
        by_time: dict[LogicalTime, dict[int, np.ndarray]] = {}
        for j, res in results.items():
            if res is None or isinstance(res, Exception):
                continue
            ts, block = res
            by_time.setdefault(ts, {})[j] = block
        complete = [ts for ts, group in by_time.items() if len(group) >= self.code.k]
        if not complete:
            return [
                np.zeros(self.block_size, dtype=np.uint8) for _ in range(self.code.k)
            ]
        ts = max(complete)
        return self.code.decode(by_time[ts])

    def write_block(self, stripe: int, index: int, value: np.ndarray) -> None:
        """Single-block update = read stripe + write stripe back.

        This is the paper's point about GWGR: the read-modify-write
        costs a full stripe round trip *and* is not safe under
        concurrent single-block updates to the same stripe."""
        data = self.read_stripe(stripe)
        data[index] = np.asarray(value, np.uint8)
        self.write_stripe(stripe, data)

    def read_block(self, stripe: int, index: int) -> np.ndarray:
        return self.read_stripe(stripe)[index]

    def collect_garbage(self, stripe: int) -> int:
        dropped = pfor(
            range(self.code.n), lambda j: self._call(j, "gc_log", stripe, j)
        )
        return sum(d for d in dropped.values() if isinstance(d, int))


def build_gwgr(
    transport: Transport, code: ReedSolomonCode, prefix: str = "gwgr"
) -> list[str]:
    """Register n GWGR nodes on a transport; returns their ids."""
    ids = []
    for j in range(code.n):
        node_id = f"{prefix}-{j}"
        transport.register(node_id, GwgrNode(node_id))
        ids.append(node_id)
    return ids
