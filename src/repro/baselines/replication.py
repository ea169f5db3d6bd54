"""k-way replication baseline — the scheme erasure codes displace.

The paper's motivation (§1, §3.3): an m-way replicated store tolerating
the same m-1 failures as an (n, n-m+1) code costs m× the space instead
of n/k×.  This minimal primary-copy implementation exists for the
space-overhead and message-count comparisons.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.errors import NodeUnavailableError, ReadFailedError
from repro.net.message import NO_ENVELOPE, Envelope
from repro.net.rpc import pfor
from repro.net.transport import RpcHandler, Transport


class ReplicaNode(RpcHandler):
    """Stores full copies of blocks."""

    def __init__(self, node_id: str, block_size: int = 1024):
        self.node_id = node_id
        self.block_size = block_size
        self._blocks: dict[int, np.ndarray] = {}
        self._lock = threading.Lock()

    def handle(
        self, op: str, *args: object, env: Envelope = NO_ENVELOPE, **kwargs: object
    ) -> object:
        with self._lock:
            return getattr(self, op)(*args, **kwargs)

    def put(self, logical: int, block: np.ndarray) -> bool:
        self._blocks[logical] = np.array(block, dtype=np.uint8, copy=True)
        return True

    def get(self, logical: int) -> np.ndarray:
        block = self._blocks.get(logical)
        if block is None:
            return np.zeros(self.block_size, dtype=np.uint8)
        return block.copy()

    def stored_bytes(self) -> int:
        return sum(b.nbytes for b in self._blocks.values())


class ReplicationClient:
    """Write-all / read-one replication over m replicas."""

    def __init__(
        self,
        client_id: str,
        transport: Transport,
        node_ids: list[str],
        block_size: int = 1024,
    ):
        if not node_ids:
            raise ValueError("need at least one replica")
        self.client_id = client_id
        self.transport = transport
        self.node_ids = list(node_ids)
        self.block_size = block_size
        transport.register(client_id)

    @property
    def replication_factor(self) -> int:
        return len(self.node_ids)

    def write_block(self, logical: int, value: np.ndarray) -> None:
        value = np.asarray(value, dtype=np.uint8)
        results = pfor(
            self.node_ids,
            lambda node: self.transport.call(
                self.client_id, node, "put", logical, value
            ),
        )
        failures = [r for r in results.values() if isinstance(r, Exception)]
        live = len(results) - len(failures)
        if live == 0:
            raise failures[0]

    def read_block(self, logical: int) -> np.ndarray:
        for node in self.node_ids:
            try:
                return self.transport.call(self.client_id, node, "get", logical)
            except NodeUnavailableError:
                continue
        raise ReadFailedError(f"all {len(self.node_ids)} replicas unavailable")


def build_replication(
    transport: Transport, replicas: int, block_size: int = 1024, prefix: str = "rep"
) -> list[str]:
    """Register ``replicas`` replica nodes; returns their ids."""
    ids = []
    for j in range(replicas):
        node_id = f"{prefix}-{j}"
        transport.register(node_id, ReplicaNode(node_id, block_size))
        ids.append(node_id)
    return ids
