"""Durable node state: a write-ahead-logged :class:`BlockStore`.

The paper treats every storage failure as fail-remap: the replacement
comes up ``INIT`` with garbage and the whole node is reconstructed from
its peers (§3.5).  Real erasure-coded stores avoid that cost whenever
they can — a node that *restarts with its own disk* only needs the
delta it missed while down.  :class:`WalStore` supplies the disk half
of that story:

* every content or metadata change a node acks is first appended to an
  append-only log and synced (write-ahead, sync-on-commit);
* each record is a **full image** of one block slot's durable state —
  block bytes, ``opmode``, ``epoch``, ``recentlist``/``oldlist``,
  ``recons_set``, ``fingerprint`` — so replay is a pure last-writer-wins
  fold over (addr, lsn) and is idempotent and order-insensitive by
  construction;
* a record is :func:`repro.net.wire.encode_record`: the address and
  epoch, then the ``get_state`` answer layout the TCP wire already
  spells out.  Replay only parses it — media bytes never run code — and
  a payload that does not decode exactly is a torn record;
* the log is periodically compacted into a snapshot (one record per
  live address, rewritten atomically);
* the store holds no live state of its own: the node's block map is
  the one live copy, and per address the store keeps only the encoded
  record it last logged — compaction re-frames those bytes at fresh
  LSNs, and the store-vs-memory audit decodes them;
* the "device" underneath (:class:`SimMedia`) injects *disk* faults at
  crash time — torn (partially written) and lost (reordered-out) tail
  records — under a seed, mirroring ``FaultPlan``'s determinism for
  the network.

Volatile-by-design state: lock fields (``lmode``/``lid``/``lock_time``)
are never persisted.  A restarted node comes back unlocked, exactly as
the paper's Fig. 6 footnote assumes for nodes that "lose their locked
state"; an interrupted recovery is re-driven by whichever client next
touches the stripe.

Crash-detection model: the media keeps a tiny *commit header* holding
the last synced LSN, modeled as sector-atomic and reliable (the
classic superblock assumption).  Data frames, by contrast, sit behind
a lying write cache: at crash, the last ``exposure`` synced frames may
be torn (truncated mid-frame, caught by CRC) or lost entirely (caught
as an LSN gap, or as ``max parsed LSN < header LSN`` for a lost tail).
Any damage makes replay *dirty* and the node degrades to fresh-INIT +
rebuild — durability faults are detected, never silently absorbed.
"""

from __future__ import annotations

import struct
import threading
import zlib
from dataclasses import dataclass, field as dc_field
from typing import Iterable, TypeVar

from repro.ids import BlockAddr
from repro.net.chaos import _unit
from repro.net.wire import WireError, decode_record, encode_record
from repro.obs.metrics import NULL_REGISTRY
from repro.storage.state import BlockState
from repro.storage.store import BlockStore

#: Frame header: LSN (8 bytes), payload length (4), payload CRC32 (4).
_FRAME = struct.Struct(">QII")

_V = TypeVar("_V")

#: Compact the log into a snapshot once it holds this many frames (or
#: twice the live addresses, whichever is more).
SNAPSHOT_EVERY = 256


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------


def _frame(lsn: int, payload: bytes) -> bytes:
    return _FRAME.pack(lsn, len(payload), zlib.crc32(payload)) + payload


def encode_frame(lsn: int, addr: BlockAddr, state: BlockState) -> bytes:
    return _frame(lsn, encode_record(addr, state))


def decode_frame(data: bytes) -> tuple[int, BlockAddr, BlockState] | None:
    """Parse one frame; None means torn (short, checksum mismatch, or a
    payload that is not a record)."""
    if len(data) < _FRAME.size:
        return None
    lsn, length, crc = _FRAME.unpack_from(data)
    payload = memoryview(data)[_FRAME.size :]
    if len(payload) != length or zlib.crc32(payload) != crc:
        return None
    try:
        return lsn, *decode_record(payload)
    except WireError:
        return None


# ---------------------------------------------------------------------------
# seeded media faults
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MediaEvent:
    """One injected disk fault, for the ledger."""

    kind: str  # torn | lost | flip
    tag: str  # media identity (e.g. "slot3")
    crash_no: int
    lsn: int

    def key(self) -> tuple[str, str, int, int]:
        return (self.kind, self.tag, self.crash_no, self.lsn)


@dataclass(frozen=True)
class MediaFaultPlan:
    """Seeded disk-fault fates applied to the log tail at crash time.

    Every draw is a pure function of ``(seed, tag, crash_no, position)``
    via the same blake2b scheme as the network's ``FaultPlan`` — no
    mutable RNG, so a fixed seed injects byte-identical disk faults on
    every run.  ``exposure`` is the size of the lying write cache: only
    the last that-many *synced* frames are at risk.
    """

    seed: int = 0
    #: Probability an exposed frame is torn (truncated mid-write).
    torn: float = 0.0
    #: Probability an exposed frame is lost outright (reordered away).
    lost: float = 0.0
    #: Probability an exposed frame takes a silent bit flip in its
    #: block image.  The frame is re-sealed with a fresh CRC, so replay
    #: parses it cleanly — only an end-to-end parity scrub can tell.
    flip: float = 0.0
    #: How many tail frames are exposed to faults at each crash.
    exposure: int = 4

    def fate(self, tag: str, crash_no: int, position: int) -> tuple[str, float]:
        """Fate of the ``position``-th exposed frame (0 = oldest): one
        of ``keep``/``torn``/``lost``/``flip`` plus the secondary draw
        (torn fraction, or flip bit-position fraction)."""
        key = (self.seed, tag, crash_no, position)
        u = _unit(*key, "fate")
        if u < self.lost:
            return "lost", 0.0
        if u < self.lost + self.torn:
            return "torn", _unit(*key, "frac")
        if u < self.lost + self.torn + self.flip:
            return "flip", _unit(*key, "bit")
        return "keep", 0.0


class SimMedia:
    """The simulated device under a :class:`WalStore`.

    Holds an ordered list of opaque frames plus the sector-atomic
    commit header (``header_lsn``).  ``crash`` applies the fault plan
    to the synced tail; ``rewrite`` models an atomic snapshot swap
    (write-new + fsync + rename), which is *not* fault-exposed.
    """

    def __init__(self, plan: MediaFaultPlan | None = None, tag: str = "media"):
        self.plan = plan or MediaFaultPlan()
        self.tag = tag
        self.header_lsn = 0
        self.crash_count = 0
        self.fault_ledger: list[MediaEvent] = []
        self._synced: list[bytes] = []
        self._pending: list[tuple[int, bytes]] = []
        self._lock = threading.Lock()

    def append(self, lsn: int, frame: bytes) -> None:
        with self._lock:
            self._pending.append((lsn, frame))

    def sync(self) -> None:
        """Commit pending frames and advance the header atomically."""
        with self._lock:
            if not self._pending:
                return
            self._synced.extend(frame for _, frame in self._pending)
            self.header_lsn = self._pending[-1][0]
            self._pending.clear()

    def rewrite(self, frames: list[tuple[int, bytes]]) -> None:
        """Atomically replace the whole log (snapshot compaction)."""
        with self._lock:
            self._synced = [frame for _, frame in frames]
            self.header_lsn = frames[-1][0] if frames else 0
            self._pending.clear()

    def frame_count(self) -> int:
        with self._lock:
            return len(self._synced)

    def read(self) -> tuple[list[bytes], int]:
        """What a reopening node finds: frames in order + header LSN."""
        with self._lock:
            return list(self._synced), self.header_lsn

    def crash(self, force: str | None = None) -> None:
        """Power-cut: un-synced frames vanish; the exposed synced tail
        draws fates from the plan.  ``force`` ("torn"/"lost"/"flip")
        damages the last synced frame unconditionally — used by tests
        and the soak's forced-degradation cycle."""
        with self._lock:
            self.crash_count += 1
            self._pending.clear()
            exposure = min(self.plan.exposure, len(self._synced))
            start = len(self._synced) - exposure
            kept: list[bytes] = self._synced[:start]
            for position, frame in enumerate(self._synced[start:]):
                fate, frac = self.plan.fate(self.tag, self.crash_count, position)
                is_last = start + position == len(self._synced) - 1
                if force is not None and is_last:
                    fate, frac = force, 0.5
                lsn = _frame_lsn(frame)
                if fate == "lost":
                    self.fault_ledger.append(
                        MediaEvent("lost", self.tag, self.crash_count, lsn)
                    )
                    continue
                if fate == "torn":
                    cut = max(1, int(len(frame) * frac))
                    kept.append(frame[:cut])
                    self.fault_ledger.append(
                        MediaEvent("torn", self.tag, self.crash_count, lsn)
                    )
                    continue
                if fate == "flip":
                    flipped = _flip_block_bit(frame, frac)
                    if flipped is not None:
                        kept.append(flipped)
                        self.fault_ledger.append(
                            MediaEvent(
                                "flip", self.tag, self.crash_count, lsn
                            )
                        )
                        continue
                    # Frame unparseable or blockless: nothing to flip.
                kept.append(frame)
            self._synced = kept

    def ledger_key(self) -> tuple[tuple[str, str, int, int], ...]:
        with self._lock:
            return tuple(sorted(e.key() for e in self.fault_ledger))


def _frame_lsn(frame: bytes) -> int:
    if len(frame) < 8:
        return -1
    return int.from_bytes(frame[:8], "big")


def _flip_block_bit(frame: bytes, frac: float) -> bytes | None:
    """Silent corruption: flip one bit of the record's block image and
    re-seal the frame with a fresh CRC, so replay parses it cleanly and
    only an end-to-end parity scrub can detect the damage.  ``frac``
    (a unit draw) selects which bit.  None when the frame has no block
    to corrupt (already torn, or unparseable)."""
    parsed = decode_frame(frame)
    if parsed is None or not parsed[2].block.size:
        return None
    lsn, addr, state = parsed
    block = state.block  # a private, writable copy of the frame's block
    bit = min(int(frac * block.size * 8), block.size * 8 - 1)
    block[bit // 8] ^= 1 << (bit % 8)
    return encode_frame(lsn, addr, state)


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


@dataclass
class ReplayResult:
    """Outcome of replaying one media image."""

    states: dict[BlockAddr, BlockState] = dc_field(default_factory=dict)
    #: The encoded record each state was decoded from, byte for byte.
    payloads: dict[BlockAddr, bytes] = dc_field(default_factory=dict)
    clean: bool = True
    reason: str | None = None
    records: int = 0
    max_lsn: int = 0


def fold_records(
    records: Iterable[tuple[int, BlockAddr, _V]],
) -> dict[BlockAddr, _V]:
    """Last-writer-wins fold: for each address keep the record with the
    highest LSN.  Pure, idempotent, order-insensitive — the property
    the WAL's full-image record format buys."""
    best: dict[BlockAddr, tuple[int, _V]] = {}
    for lsn, addr, value in records:
        if addr not in best or lsn > best[addr][0]:
            best[addr] = (lsn, value)
    return {addr: value for addr, (_, value) in best.items()}


def replay(frames: list[bytes], header_lsn: int) -> ReplayResult:
    """Parse and fold a media image; detect torn/lost damage.

    Damage taxonomy (all make the result *dirty*, states empty):

    * **torn record** — a frame fails to parse (short, CRC mismatch, or
      a payload that does not decode as a record);
    * **lost record** — LSNs are not consecutive (a middle frame gone);
    * **lost tail**   — the last parsed LSN is behind the commit header.
    """
    result = ReplayResult()
    records: list[tuple[int, BlockAddr, tuple[BlockState, bytes]]] = []
    prev_lsn: int | None = None
    for i, frame in enumerate(frames):
        decoded = decode_frame(frame)
        if decoded is None:
            result.clean = False
            result.reason = f"torn record at frame {i}"
            return result
        lsn, addr, state = decoded
        if prev_lsn is not None and lsn != prev_lsn + 1:
            result.clean = False
            result.reason = (
                f"lost record(s): lsn jumped {prev_lsn} -> {lsn}"
            )
            return result
        prev_lsn = lsn
        records.append((lsn, addr, (state, frame)))
    result.records = len(records)
    result.max_lsn = prev_lsn or 0
    if result.max_lsn < header_lsn:
        result.clean = False
        result.reason = (
            f"lost tail: header committed lsn {header_lsn}, "
            f"log ends at {result.max_lsn}"
        )
        return result
    for addr, (state, frame) in fold_records(records).items():
        result.states[addr] = state
        result.payloads[addr] = frame[_FRAME.size :]
    return result


# ---------------------------------------------------------------------------
# the store
# ---------------------------------------------------------------------------


class WalStore(BlockStore):
    """A :class:`BlockStore` with restart support: WAL + snapshots over
    a fault-injectable :class:`SimMedia`.

    Lifecycle: ``persist``/``persist_meta`` while serving; ``crash()``
    at fail-stop; ``reopen()`` on restart (returns a
    :class:`ReplayResult` — clean means the caller may restore the
    states verbatim); ``reset()`` wipes the media when replay was dirty
    and the node must come back fresh-INIT.

    The store holds no live state: per address it keeps only the
    encoded record it last logged, which is what compaction re-frames
    and what :meth:`persisted_state` decodes for audits.
    """

    def __init__(
        self,
        *,
        media: SimMedia | None = None,
        plan: MediaFaultPlan | None = None,
        tag: str = "media",
    ):
        self.media = media or SimMedia(plan, tag=tag)
        self.compactions = 0
        self.metrics = NULL_REGISTRY
        self._metrics_tag = tag
        self._lsn = 0
        self._records: dict[BlockAddr, bytes] = {}
        self._open = True
        self._lock = threading.Lock()

    # -- BlockStore interface ------------------------------------------------

    def persist(self, addr: BlockAddr, state: BlockState, redundant: bool) -> None:
        self._append(addr, state)

    def persist_meta(self, addr: BlockAddr, state: BlockState) -> None:
        # Full-image records: metadata changes re-log the whole slot.
        self._append(addr, state)

    def addresses(self) -> list[BlockAddr]:
        with self._lock:
            return sorted(
                self._records, key=lambda a: (a.volume, a.stripe, a.index)
            )

    def persisted_state(self, addr: BlockAddr) -> BlockState | None:
        """Durable image of one slot (for store-vs-memory audits),
        decoded from the last record logged for it."""
        with self._lock:
            payload = self._records.get(addr)
        if payload is None:
            return None
        return decode_record(payload)[1]

    # -- lifecycle -----------------------------------------------------------

    def crash(self, force: str | None = None) -> None:
        """Fail-stop the node this store backs: the media takes its
        seeded (or ``force``-d) tail damage; the kept records are
        invalid until :meth:`reopen`."""
        with self._lock:
            self._open = False
            self._records = {}
        self.media.crash(force=force)

    def reopen(self) -> ReplayResult:
        """Replay the media.  On a clean replay the kept records are the
        winning frames' payloads and the store serves again; on a dirty
        one the caller must :meth:`reset` and bring the node up fresh."""
        frames, header_lsn = self.media.read()
        result = replay(frames, header_lsn)
        with self._lock:
            if result.clean:
                self._records = dict(result.payloads)
                self._lsn = max(result.max_lsn, self._lsn)
                self._open = True
        return result

    def reset(self) -> None:
        """Wipe the media (mkfs): used when replay detected damage and
        the node rejoins as a fresh INIT replacement."""
        with self._lock:
            self._records = {}
            self._lsn = 0
            self._open = True
        self.media.rewrite([])

    # -- internals -----------------------------------------------------------

    def _append(self, addr: BlockAddr, state: BlockState) -> None:
        payload = encode_record(addr, state)
        with self._lock:
            if not self._open:
                raise RuntimeError("WalStore is crashed; reopen() first")
            self._lsn += 1
            lsn = self._lsn
            self._records[addr] = payload
            live = len(self._records)
        frame = _frame(lsn, payload)
        self.media.append(lsn, frame)
        self.media.sync()  # sync-on-commit: acked implies durable
        metrics = self.metrics
        if metrics.enabled:
            tag = self._metrics_tag
            metrics.counter("wal_appends_total", media=tag).inc()
            metrics.counter("wal_append_bytes_total", media=tag).inc(len(frame))
        if self.media.frame_count() >= max(SNAPSHOT_EVERY, 2 * live):
            self._compact()

    def _compact(self) -> None:
        """Snapshot: rewrite one record per live address at fresh
        consecutive LSNs (atomic swap; never fault-exposed)."""
        with self._lock:
            frames: list[tuple[int, bytes]] = []
            for addr in sorted(
                self._records, key=lambda a: (a.volume, a.stripe, a.index)
            ):
                self._lsn += 1
                frames.append(
                    (self._lsn, _frame(self._lsn, self._records[addr]))
                )
            self.compactions += 1
        self.media.rewrite(frames)
        metrics = self.metrics
        if metrics.enabled:
            tag = self._metrics_tag
            metrics.counter("wal_compactions_total", media=tag).inc()
            metrics.counter(
                "wal_compaction_bytes_total", media=tag
            ).inc(sum(len(f) for _, f in frames))
