"""Outside-in span tracing for the per-layer pass.

Nothing in ``src/`` is edited: :meth:`Tracer.install` replaces public
callables on the live classes, the cluster's transport object and the
``repro.gf.field`` module with recorders, and :meth:`Tracer.uninstall`
puts the originals back.  A span is one call: (id, parent, layer,
name, start, end, op, bytes).  Spans stay in memory; the caller writes
them out after the run.

The traced pass keeps exactly one logical op in flight, which is what
makes cross-thread parents decidable.  A span's parent is

1. the innermost open span on its own thread, else
2. for an RPC handler on a server thread (TCP), the open ``net`` span
   addressed to that node, else
3. the innermost open span on the thread that issued the op (this is
   where ``pfor`` pool threads attach), else none.

A span's *self time* is its duration minus the union of its children's
intervals, so parallel children are not subtracted twice.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from typing import NamedTuple

LAYERS = (
    "core", "client", "net", "storage", "storage.wal", "erasure", "gf",
    "directory", "placement",
)


class Span(NamedTuple):
    sid: int
    parent: int  # 0: none (the root span of a logical op)
    layer: str
    name: str
    start: float
    end: float
    op: int  # shared by every span of one logical op
    nbytes: int  # block bytes processed (gf kernels), else 0


class Tracer:
    def __init__(self) -> None:
        self.records: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._driver: list[int] = []  # open-span stack of the op's thread
        self._open_calls: dict[str, int] = {}  # node id -> open net span
        self._op = 0
        self._undo: list[tuple[object, str, bool, object]] = []

    def spans(self) -> list[Span]:
        return [Span._make(record) for record in self.records]

    # -- wrapping ---------------------------------------------------------

    def wrap(self, owner, attr, layer, *, name=None, root=False, label=None,
             dsts=None, origin=None, sized=False) -> None:
        """Record a span around ``owner.attr`` (a class, an instance or
        a module).  ``label(args)`` suffixes the span name, ``dsts(args)``
        names the nodes an RPC is addressed to, ``origin(args)`` names
        the node a handler serves, ``sized`` records the last
        argument's ``nbytes``."""
        original = getattr(owner, attr)
        self._undo.append((owner, attr, attr in vars(owner), original))
        base = name or attr
        perf = time.perf_counter
        local = self._local
        records = self.records
        ids = self._ids
        open_calls = self._open_calls

        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            if stack:
                parent = stack[-1]
            elif root:
                parent = 0
                self._op += 1
                self._driver = stack
            else:
                parent = 0
                if origin is not None:
                    parent = open_calls.get(origin(args), 0)
                if not parent:
                    try:
                        parent = self._driver[-1]
                    except IndexError:
                        pass
            sid = next(ids)
            stack.append(sid)
            targets = dsts(args) if dsts is not None else ()
            for target in targets:
                open_calls[target] = sid
            op = self._op
            start = perf()
            try:
                return original(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                for target in targets:
                    open_calls.pop(target, None)
                records.append((
                    sid, parent, layer,
                    base if label is None else f"{base}.{label(args)}",
                    start, end, op,
                    getattr(args[-1], "nbytes", 0) if sized else 0,
                ))

        setattr(owner, attr, wrapper)

    def install(self, transport) -> None:
        """Wrap every layer boundary (bench/README.md lists them)."""
        from repro.client.gc import GcManager
        from repro.client.protocol import ProtocolClient
        from repro.client.rebuild import Rebuilder
        from repro.core.volume import VolumeClient
        from repro.directory import (
            Directory, DirectoryCache, DirectoryReplica, ReplicatedDirectory,
        )
        from repro.erasure.rs import ReedSolomonCode
        from repro.gf import field
        from repro.placement.map import PlacementCache
        from repro.storage.node import StorageNode
        from repro.storage.wal import SimMedia, WalStore

        for attr in ("read_block", "write_block", "read_bytes", "write_bytes",
                     "rebuild", "collect_garbage"):
            self.wrap(VolumeClient, attr, "core", root=True)
        for attr in ("read", "write", "recover"):
            self.wrap(ProtocolClient, attr, "client")
        self.wrap(GcManager, "run_once", "client", name="gc.run_once")
        self.wrap(Rebuilder, "rebuild", "client", name="rebuilder.rebuild")
        self.wrap(transport, "call", "net",
                  label=lambda a: a[2], dsts=lambda a: (a[1],))
        self.wrap(transport, "broadcast", "net",
                  label=lambda a: a[2], dsts=lambda a: a[1])
        self.wrap(StorageNode, "handle", "storage",
                  label=lambda a: a[1], origin=lambda a: a[0].node_id)
        for attr in ("persist", "persist_meta", "reopen"):
            self.wrap(WalStore, attr, "storage.wal", name=f"wal.{attr}")
        for attr in ("append", "sync", "rewrite"):
            self.wrap(SimMedia, attr, "storage.wal", name=f"media.{attr}")
        for attr in ("delta", "encode", "decode", "reconstruct_stripe"):
            self.wrap(ReedSolomonCode, attr, "erasure")
        # Every caller reaches the kernels as ``field.<name>`` at call
        # time, so replacing the module attribute catches them all.
        for attr in ("add_block", "iadd_block", "sub_block", "mul_block",
                     "addmul_block", "delta_block"):
            self.wrap(field, attr, "gf", sized=True)
        for cls in (Directory, DirectoryCache, ReplicatedDirectory):
            for attr in ("node_id", "lookup", "remap"):
                if hasattr(cls, attr):
                    self.wrap(cls, attr, "directory",
                              name=f"{cls.__name__}.{attr}")
        self.wrap(DirectoryReplica, "handle", "directory", name="replica",
                  label=lambda a: a[1], origin=lambda a: a[0].replica_id)
        self.wrap(PlacementCache, "entry", "placement")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, own, original = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


# -- analysis -------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span id: duration minus the union of the child
    intervals, each clipped to the parent."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent:
            children[span.parent].append((span.start, span.end))
    out: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.sid, ())):
            start = max(start, cursor)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out[span.sid] = (span.end - span.start) - covered
    return out


def by_layer(spans: list[Span]) -> tuple[dict[str, float], dict[str, dict]]:
    """(self seconds per layer, per-span-name rows).  A row holds the
    layer, call count, self seconds and block bytes."""
    selfs = self_times(spans)
    layers = {layer: 0.0 for layer in LAYERS}
    names: dict[str, dict] = {}
    for span in spans:
        own = selfs[span.sid]
        layers[span.layer] = layers.get(span.layer, 0.0) + own
        row = names.setdefault(
            f"{span.layer}:{span.name}",
            {"layer": span.layer, "calls": 0, "self_s": 0.0, "nbytes": 0},
        )
        row["calls"] += 1
        row["self_s"] += own
        row["nbytes"] += span.nbytes
    return layers, names
