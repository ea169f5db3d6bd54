"""Storage-node substrate: per-block state machines served over RPC."""

from repro.storage.node import BROADCAST_INDEX, StorageNode, VolumeMeta
from repro.storage.store import BlockStore, MemoryStore, SimulatedDiskStore
from repro.storage.wal import (
    MediaFaultPlan,
    ReplayResult,
    SimMedia,
    WalStore,
    replay,
)
from repro.storage.state import (
    AddResult,
    AddStatus,
    BlockState,
    CheckTidStatus,
    LockMode,
    OpMode,
    ReadResult,
    StateSnapshot,
    SwapResult,
    TidEntry,
    TryLockResult,
    tids,
)

__all__ = [
    "AddResult",
    "AddStatus",
    "BROADCAST_INDEX",
    "BlockState",
    "BlockStore",
    "MemoryStore",
    "SimulatedDiskStore",
    "CheckTidStatus",
    "LockMode",
    "MediaFaultPlan",
    "OpMode",
    "ReadResult",
    "ReplayResult",
    "SimMedia",
    "StateSnapshot",
    "StorageNode",
    "SwapResult",
    "TidEntry",
    "TryLockResult",
    "VolumeMeta",
    "WalStore",
    "replay",
    "tids",
]
