"""One directory replica: per-key consensus registers behind RPC.

Each replica holds, per directory key, a classic single-decree
register (Paxos synod / the write path of ABD with proposer fencing):

``prepare(key, tag)``
    Promise not to accept anything older than ``tag``; report the
    highest value accepted so far and the highest committed value.
``accept(key, tag, value)``
    Accept ``value`` under ``tag`` unless a higher tag was promised.
``apply(key, tag, value)``
    Learn a chosen value: commit it if ``tag`` is newer than what is
    already committed (monotonic, idempotent).

Tags are ``(round, proposer)`` pairs ordered lexicographically, so two
proposers can never tie — this is the epoch fencing that makes remap
decisions unique per (slot, incarnation).  A value is *chosen* once a
majority accepted it; ``apply`` is best-effort dissemination and a
replica that misses it converges later via ``dir_sync`` anti-entropy
or read repair.

Replica keys are either ``("slot", slot)`` holding a
:class:`SlotBinding`, or ``("gen", stripe)`` holding the committed
placement generation for that stripe.

Every accepted (slot, incarnation, node) triple is appended to
``acceptance_log`` — the raw material for the ``no_split_brain``
invariant (:func:`repro.analysis.invariants.check_directory`).
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass

from repro.errors import UnknownOperationError
from repro.net.message import NO_ENVELOPE, Envelope
from repro.net.transport import RpcHandler

#: Proposal tag: (round, proposer id).  Lexicographic order; rounds
#: from distinct proposers never compare equal.
Tag = tuple[int, str]

#: Sorts below every real tag.
ZERO_TAG: Tag = (0, "")


@dataclass(frozen=True)
class SlotBinding:
    """The value held by a ``("slot", s)`` register.

    ``pinned`` rides inside the replicated value so a crash-restart pin
    is observed atomically by every remap decision, exactly like the
    local directory's pin set."""

    node_id: str
    incarnation: int
    pinned: bool = False


class DirectoryReplica(RpcHandler):
    """A single directory replica, addressable only via the transport."""

    def __init__(self, replica_id: str):
        self.replica_id = replica_id
        self._promised: dict[tuple, Tag] = {}
        self._accepted: dict[tuple, tuple[Tag, object]] = {}
        self._committed: dict[tuple, tuple[Tag, object]] = {}
        #: every accept this replica ever granted: (key, tag, value).
        self.acceptance_log: list[tuple[tuple, Tag, object]] = []
        self._lock = threading.Lock()

    # -- RPC surface ---------------------------------------------------

    def handle(self, op: str, *args: object, env: Envelope = NO_ENVELOPE) -> object:
        method = getattr(self, f"op_{op}", None)
        if method is None:
            raise UnknownOperationError(f"directory replica op {op!r}")
        return method(*args)

    def op_dir_prepare(self, key: tuple, tag: Tag) -> dict:
        """Phase 1: promise ``tag``, expose prior accepted/committed."""
        key, tag = tuple(key), tuple(tag)
        with self._lock:
            promised = self._promised.get(key, ZERO_TAG)
            if tag <= promised:
                return {"ok": False, "promised": promised}
            self._promised[key] = tag
            return {
                "ok": True,
                "promised": tag,
                "accepted": self._accepted.get(key),
                "committed": self._committed.get(key),
            }

    def op_dir_accept(self, key: tuple, tag: Tag, value: object) -> dict:
        """Phase 2: accept unless fenced out by a newer promise."""
        key, tag = tuple(key), tuple(tag)
        with self._lock:
            promised = self._promised.get(key, ZERO_TAG)
            if tag < promised:
                return {"ok": False, "promised": promised}
            self._promised[key] = tag
            self._accepted[key] = (tag, value)
            self.acceptance_log.append((key, tag, value))
            return {"ok": True, "promised": tag}

    def op_dir_apply(self, key: tuple, tag: Tag, value: object) -> dict:
        """Learn a chosen value; idempotent, newest tag wins."""
        key, tag = tuple(key), tuple(tag)
        with self._lock:
            committed = self._committed.get(key)
            if committed is None or tag > committed[0]:
                self._committed[key] = (tag, value)
            return {"ok": True}

    def op_dir_read(self, key: tuple) -> dict:
        """Committed (tag, value) for one key; None when never written."""
        with self._lock:
            return {"committed": self._committed.get(tuple(key))}

    def op_dir_snapshot(self) -> dict:
        """Full committed state (anti-entropy source, invariant probe)."""
        with self._lock:
            return {"committed": dict(self._committed)}

    def op_dir_sync(self, entries: dict) -> dict:
        """Anti-entropy: adopt any committed entry with a newer tag."""
        adopted = 0
        with self._lock:
            for key, (tag, value) in entries.items():
                key, tag = tuple(key), tuple(tag)
                committed = self._committed.get(key)
                if committed is None or tag > committed[0]:
                    self._committed[key] = (tag, value)
                    adopted += 1
        return {"adopted": adopted}

    # -- direct inspection (invariants, digests; not RPC) --------------

    def committed_state(self) -> dict[tuple, tuple[Tag, object]]:
        with self._lock:
            return dict(self._committed)

    def accepted_bindings(self) -> list[tuple[int, int, str]]:
        """(slot, incarnation, node_id) for every accepted slot value."""
        with self._lock:
            log = list(self.acceptance_log)
        out = []
        for key, _tag, value in log:
            if key and key[0] == "slot" and isinstance(value, SlotBinding):
                out.append((key[1], value.incarnation, value.node_id))
        return out

    def state_digest(self) -> str:
        """Deterministic digest of the committed map (order-free)."""
        with self._lock:
            items = sorted(
                (repr(key), repr(tag), repr(value))
                for key, (tag, value) in self._committed.items()
            )
        payload = "\n".join(",".join(item) for item in items)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]
