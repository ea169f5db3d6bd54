"""Client-side parallel calls (pfor).

The paper's pseudocode uses ``pfor`` — a parallel-for over storage
nodes.  :func:`pfor` reproduces it with a shared thread pool: results
come back as a dict, and per-target failures are captured as exception
objects so one crashed node does not abort the batch (the protocol
decides what a failure means).
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterable
from concurrent.futures import ThreadPoolExecutor
from typing import TypeVar

T = TypeVar("T")
R = TypeVar("R")

# A process-wide pool is enough: protocol fan-out is small (n <= 32) and
# pfor bodies are short RPCs.  Sized generously so nested pfors from
# several concurrent clients do not starve each other.
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
