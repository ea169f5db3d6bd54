"""Persistence backends for storage nodes, with the §3.11 write-back
optimization for sequential I/O.

A node's ``_blocks`` map is the one live copy of every block slot's
state.  A :class:`BlockStore` hears about each change to it and keeps
only what its medium models — never a second copy of that state:

* :class:`MemoryStore` — RAM, the medium of the paper's §5.1
  experiments.  The node's own map *is* the RAM, so it keeps nothing.
* :class:`SimulatedDiskStore` — a block device modelled by *counting*
  device writes (we care about I/O economy, not persistence).  §3.11
  observes that during sequential writes a redundant block R is
  updated k times (once per data block of its stripe), so "the storage
  node can postpone writing R to disk until after the node knows that
  the sequential writes will no longer affect R.  This can be
  determined when the node sees a write for large enough logical block
  C."  In write-through mode every update hits the device; in
  write-back mode redundant-block updates are buffered and flushed once
  activity moves ``defer_window`` stripes past them — reducing device
  writes per redundant block from k to ~1 for sequential workloads
  (asserted by tests and the ablation bench).
* :class:`~repro.storage.wal.WalStore` — a write-ahead log of encoded
  records that survives a crash-restart cycle.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

import numpy as np

from repro.ids import BlockAddr

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.state import BlockState


class BlockStore(ABC):
    """The medium under a storage node, told of every change it acks."""

    @abstractmethod
    def persist(self, addr: BlockAddr, state: "BlockState", redundant: bool) -> None:
        """A slot's *content* changed (swap, add, reconstruct).
        ``redundant`` marks a redundant-block position (§3.11)."""

    def persist_meta(self, addr: BlockAddr, state: "BlockState") -> None:
        """A slot's *metadata* changed (finalize, GC).  Only a store
        that logs metadata cares; the default ignores it, so e.g.
        :class:`SimulatedDiskStore`'s device-write counting is not
        perturbed by metadata churn."""

    def observe_stripe(self, stripe: int) -> None:
        """Hint: the node is now serving activity for ``stripe``."""

    def sync(self) -> None:
        """Flush any buffered writes to the device."""


class MemoryStore(BlockStore):
    """RAM storage — the medium of the paper's §5.1 experiments.  The
    node's in-memory state is the RAM image, so there is nothing more
    to keep."""

    def persist(self, addr: BlockAddr, state: "BlockState", redundant: bool) -> None:
        pass


class SimulatedDiskStore(BlockStore):
    """A device-write-counting disk model with optional write-back.

    ``defer_window``: a buffered redundant block of stripe s is flushed
    once the node observes activity for stripe >= s + defer_window —
    the "large enough logical block C" rule of §3.11.
    """

    def __init__(self, write_back: bool = True, defer_window: int = 2):
        if defer_window < 1:
            raise ValueError("defer_window must be >= 1")
        self.write_back = write_back
        self.defer_window = defer_window
        self.device_writes = 0
        self.buffered_peak = 0
        self._disk: dict[BlockAddr, np.ndarray] = {}
        self._dirty: dict[BlockAddr, np.ndarray] = {}
        self._lock = threading.Lock()

    # -- BlockStore interface ------------------------------------------------

    def persist(self, addr: BlockAddr, state: "BlockState", redundant: bool) -> None:
        image = state.block.copy()
        with self._lock:
            if self.write_back and redundant:
                self._dirty[addr] = image
                self.buffered_peak = max(self.buffered_peak, len(self._dirty))
            else:
                self._write_device(addr, image)

    def observe_stripe(self, stripe: int) -> None:
        """Flush buffered redundant blocks the cursor has moved past."""
        if not self.write_back:
            return
        with self._lock:
            ripe = [
                addr
                for addr in self._dirty
                if addr.stripe + self.defer_window <= stripe
            ]
            for addr in ripe:
                self._write_device(addr, self._dirty.pop(addr))

    def sync(self) -> None:
        with self._lock:
            for addr, image in self._dirty.items():
                self._write_device(addr, image)
            self._dirty.clear()

    # -- introspection ---------------------------------------------------------

    def dirty_count(self) -> int:
        with self._lock:
            return len(self._dirty)

    def device_image(self, addr: BlockAddr) -> np.ndarray | None:
        """What is on the *device* (ignoring the write-back buffer)."""
        with self._lock:
            image = self._disk.get(addr)
            return None if image is None else image.copy()

    def _write_device(self, addr: BlockAddr, image: np.ndarray) -> None:
        self._disk[addr] = image
        self.device_writes += 1
