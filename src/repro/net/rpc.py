"""Parallel calls on a shared thread pool (pfor).

The paper's pseudocode uses ``pfor`` — a parallel-for over storage
nodes.  :func:`pfor` reproduces it with a shared thread pool: results
come back as a dict, and per-target failures are captured as exception
objects so one crashed node does not abort the batch (the protocol
decides what a failure means).

The data plane fans out through
:meth:`~repro.net.transport.Transport.fan_out`, and only a transport
whose legs can sleep (a modeled delay, injected faults) hands them to
this pool.  Its other users need real concurrency or sit outside the
data plane: the hedged read's race, the gray soak's overload burst and
the FAB/GWGR baselines.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterable
from concurrent.futures import ThreadPoolExecutor
from typing import TypeVar

T = TypeVar("T")
R = TypeVar("R")

# A process-wide pool is enough: fan-out is small (n <= 32) and pfor
# bodies are short RPCs.  Sized generously so the frame rounds of
# several concurrent clients on an overlapping transport, the directory
# fan-outs that a remap starts from inside a frame's leg, hedges and
# the gray soak's burst do not starve each other.
_POOL_SIZE = 64
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _pool_instance() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max_workers=_POOL_SIZE, thread_name_prefix="repro-pfor"
            )
        return _pool


def pfor(items: Iterable[T], body: Callable[[T], R]) -> dict[T, R | Exception]:
    """Run ``body`` over ``items`` in parallel; gather results by item.

    Exceptions raised by a body are returned in place of results, never
    raised: the caller inspects them (matching how the protocol treats
    per-node RPC failures as data).  Each body's own RPC deadlines bound
    how long the gather waits.
    """
    items = list(items)
    if not items:
        return {}
    if len(items) == 1:
        item = items[0]
        try:
            return {item: body(item)}
        except Exception as exc:
            return {item: exc}
    pool = _pool_instance()
    futures = {item: pool.submit(body, item) for item in items}
    results: dict[T, R | Exception] = {}
    for item, future in futures.items():
        try:
            results[item] = future.result()
        except Exception as exc:
            results[item] = exc
    return results
