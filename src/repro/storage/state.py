"""Storage-node state: modes, tid lists, RPC result types.

This module mirrors the global variables of the paper's Figs. 4-6:

* ``opmode`` in {NORM, RECONS, INIT} — NORM: valid data; INIT: invalid
  (fresh after fail-remap); RECONS: limbo during recovery phase 3.
* ``lmode`` in {UNL, L0, L1, EXP} — unlocked; partial lock (adds still
  allowed); full lock; expired lock (holder crashed).
* ``recentlist`` / ``oldlist`` — sets of (tid, time) recording which
  WRITEs touched the block; the consistency oracle of recovery.

The result types are named tuples carrying exactly the tuples the
pseudocode returns (e.g. ``swap`` returns <block, epoch, otid, lmode>).
"""

from __future__ import annotations

import enum
import functools
import hashlib
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.ids import Tid


class OpMode(enum.Enum):
    NORM = "NORM"
    RECONS = "RECONS"
    INIT = "INIT"


class LockMode(enum.Enum):
    UNL = "UNL"
    L0 = "L0"  # partial lock: adds allowed, everything else blocked
    L1 = "L1"  # full lock
    EXP = "EXP"  # lock whose holder crashed


class AddStatus(enum.Enum):
    OK = "OK"
    ORDER = "ORDER"  # previous write's add not seen yet; retry later
    ERROR = "ERROR"  # the pseudocode's bottom status


class CheckTidStatus(enum.Enum):
    INIT = "INIT"  # ntid unknown: node crashed/remapped since our add
    GC = "GC"  # otid gone from recentlist: previous write completed
    NOCHANGE = "NOCHANGE"


class TidEntry(NamedTuple):
    """One recentlist/oldlist item: a tid plus the node-local time it
    was recorded (used to find "the tid with largest time" in swap and
    to detect stale unfinished writes in the monitor)."""

    tid: Tid
    seq_time: int  # node-local logical time, strictly increasing
    wall_time: float  # wall-clock stamp for staleness monitoring


class ReadResult(NamedTuple):
    block: np.ndarray | None  # None is the pseudocode's bottom
    lmode: LockMode


class SwapResult(NamedTuple):
    block: np.ndarray | None
    epoch: int
    otid: Tid | None
    lmode: LockMode


class AddResult(NamedTuple):
    status: AddStatus
    opmode: OpMode
    lmode: LockMode


class TryLockResult(NamedTuple):
    ok: bool
    oldlmode: LockMode  # mode to restore if the recovery aborts


class StateSnapshot(NamedTuple):
    """What ``get_state`` returns for recovery (Fig. 6 line 28).

    Deviation from the paper noted in DESIGN.md: ``block`` is returned
    for RECONS nodes too (their content was written by a recovery and
    is valid); only INIT nodes hide it.  Without this, a client picking
    up a crashed recovery could find fewer than k readable blocks even
    though the data is intact.
    """

    opmode: OpMode
    recons_set: frozenset[int] | None
    oldlist: frozenset[TidEntry]
    recentlist: frozenset[TidEntry]
    block: np.ndarray | None
    #: Content fingerprint recorded when ``block`` was last mutated
    #: (None for INIT garbage).
    fingerprint: str | None = None


class FingerprintResult(NamedTuple):
    """What the ``fingerprint`` RPC returns: the digest recorded when
    the block was last legitimately mutated (``stored``), the digest of
    the bytes the node would serve right now (``live``), and enough
    context for the caller to know whether a verdict is meaningful.
    ``stored != live`` means the medium corrupted the block at rest —
    every legitimate mutation path updates both under the node lock."""

    stored: str | None  # None: INIT garbage, never sealed
    live: str
    opmode: OpMode
    pending: bool  # recentlist non-empty: writes not yet collected


def content_fingerprint(block: np.ndarray) -> str:
    """Digest of a block's content: SHA-256 truncated to 16 bytes, as 32
    lowercase hex characters.

    SHA-256 rather than blake2b because OpenSSL runs it on the CPU's SHA
    instructions where they exist (about 40 % less time per 64 KiB
    block). The fingerprint only has to catch non-Byzantine damage (bit
    rot, torn or misdirected writes), and a 128-bit truncation misses
    random damage with probability 2^-128, as 128-bit blake2b did. A
    contiguous block is hashed in place, without a copy.
    """
    data = np.ascontiguousarray(block, dtype=np.uint8)
    return hashlib.sha256(data).digest()[:16].hex()


@functools.lru_cache(maxsize=64)
def zero_fingerprint(size: int) -> str:
    """``content_fingerprint`` of an all-zero block of ``size`` bytes,
    computed once per size (every original slot starts as one; a
    process uses a handful of block sizes, so the cache stays small)."""
    return content_fingerprint(np.zeros(size, dtype=np.uint8))


def tids(entries: frozenset[TidEntry] | set[TidEntry]) -> set[Tid]:
    """The paper's ``tids(list)`` helper: project entries to their tids."""
    return {entry.tid for entry in entries}


@dataclass
class BlockState:
    """All per-block-slot state of one storage node.

    The paper presents one storage node holding one block; a real node
    holds one ``BlockState`` per (volume, stripe, position) it serves.
    """

    block: np.ndarray
    opmode: OpMode = OpMode.NORM
    lmode: LockMode = LockMode.UNL
    epoch: int = 0
    recentlist: set[TidEntry] = field(default_factory=set)
    oldlist: set[TidEntry] = field(default_factory=set)
    lid: str | None = None  # client currently holding the lock
    lock_time: float = 0.0  # wall clock when the lock was last taken
    recons_set: frozenset[int] | None = None
    #: Digest of ``block`` recorded under the node lock at every
    #: legitimate mutation (swap/add/reconstruct); persisted alongside
    #: the bytes so an at-rest flip leaves it stale and detectable.
    fingerprint: str | None = None

    def recent_tids(self) -> set[Tid]:
        return tids(self.recentlist)

    def old_tids(self) -> set[Tid]:
        return tids(self.oldlist)

    def latest_recent(self) -> TidEntry | None:
        """Entry with the largest node-local time (Fig. 5 line 32)."""
        if not self.recentlist:
            return None
        return max(self.recentlist, key=lambda e: e.seq_time)

    def metadata_bytes(self) -> int:
        """Estimated control-state size for the §6.5 overhead numbers.

        Mirrors the paper's accounting: epoch (4), opmode+lmode (1),
        plus roughly 10 bytes per live tid entry (seq 4 + index 2 +
        client 2 + time 2).  With empty lists this is the quiescent
        ~5-10 bytes/block figure.
        """
        per_entry = 10
        return 5 + per_entry * (len(self.recentlist) + len(self.oldlist))
