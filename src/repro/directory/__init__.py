"""Directory service: logical storage slots -> physical nodes (§3.5).

Two implementations share one duck-typed API (``bind`` / ``node_id`` /
``incarnation`` / ``slots`` / ``pin`` / ``unpin`` / ``is_pinned`` /
``remap``):

:mod:`repro.directory.local`
    The original single in-process map — zero network cost, but a
    single point of failure: one process holds every slot binding.
    The replicated directory below closes that gap.

:mod:`repro.directory.replica` / :mod:`repro.directory.quorum`
    A replicated directory *service*: 3–5 replicas reachable only
    through the transport stack (so chaos faults hit metadata traffic
    too), driven by majority-quorum single-decree consensus per key
    with epoch fencing.  A minority of replicas can crash, restart or
    partition away and clients still resolve slots; on quorum loss the
    client degrades to cached bindings and refuses remaps rather than
    split-braining.

See docs/PROTOCOL.md §9 for the quorum rules and degraded mode.
"""

from repro.directory.local import Directory, Provisioner, UnknownSlotError
from repro.directory.quorum import (
    DirectoryCache,
    QuorumPlacement,
    ReplicatedDirectory,
)
from repro.directory.replica import DirectoryReplica, SlotBinding, Tag

__all__ = [
    "Directory",
    "DirectoryCache",
    "DirectoryReplica",
    "Provisioner",
    "QuorumPlacement",
    "ReplicatedDirectory",
    "SlotBinding",
    "Tag",
    "UnknownSlotError",
]
