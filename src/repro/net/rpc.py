"""Client-side RPC conveniences: operation deadlines and parallel calls (pfor).

The paper's pseudocode uses ``pfor`` — a parallel-for over storage
nodes.  :func:`pfor` reproduces it with a shared thread pool: results
come back as a dict, and per-target failures are captured as exception
objects so one crashed node does not abort the batch (the protocol
decides what a failure means).
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Iterable
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import TypeVar

from repro.errors import RpcTimeoutError

T = TypeVar("T")
R = TypeVar("R")


class Deadline:
    """A countdown budget for one logical operation.

    Protocol loops (READ/WRITE attempts) consult a deadline so an
    operation's total latency is bounded even when individual RPCs keep
    timing out and retrying.  ``Deadline.after(None)`` never expires,
    preserving the original unbounded-retry behaviour.
    """

    __slots__ = ("expires_at",)

    def __init__(self, expires_at: float | None):
        self.expires_at = expires_at

    @classmethod
    def after(cls, seconds: float | None) -> "Deadline":
        if seconds is None:
            return cls(None)
        return cls(time.monotonic() + seconds)

    def expired(self) -> bool:
        return self.expires_at is not None and time.monotonic() >= self.expires_at

    def remaining(self) -> float | None:
        """Seconds left (never negative), or None for an infinite budget."""
        if self.expires_at is None:
            return None
        return max(0.0, self.expires_at - time.monotonic())

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


def pfor(
    items: Iterable[T],
    body: Callable[[T], R],
    *,
    timeout: float | None = None,
) -> dict[T, R | Exception]:
    """Run ``body`` over ``items`` in parallel; gather results by item.

    Exceptions raised by a body are returned in place of results, never
    raised: the caller inspects them (matching how the protocol treats
    per-node RPC failures as data).

    ``timeout`` bounds the whole batch: items whose body has not
    finished when it elapses yield an :class:`RpcTimeoutError` entry
    instead of blocking the gather.  (The straggler body keeps running
    on its pool thread — like a late network reply, its eventual result
    is discarded.)
    """
    items = list(items)
    if not items:
        return {}
    if len(items) == 1 and timeout is None:
        item = items[0]
        try:
            return {item: body(item)}
        except Exception as exc:
            return {item: exc}
    pool = _pool_instance()
    deadline = Deadline.after(timeout)
    futures = {item: pool.submit(body, item) for item in items}
    results: dict[T, R | Exception] = {}
    for item, future in futures.items():
        try:
            results[item] = future.result(timeout=deadline.remaining())
        except FutureTimeoutError:
            results[item] = RpcTimeoutError(str(item), deadline=timeout)
        except Exception as exc:
            results[item] = exc
    return results
