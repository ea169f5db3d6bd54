"""pfor."""

from __future__ import annotations

import threading
import time

from repro.net.rpc import pfor


class TestPfor:
    def test_empty(self):
        assert pfor([], lambda x: x) == {}

    def test_single_item_inline(self):
        assert pfor([3], lambda x: x * 2) == {3: 6}

    def test_results_keyed_by_item(self):
        out = pfor([1, 2, 3], lambda x: x * x)
        assert out == {1: 1, 2: 4, 3: 9}

    def test_exceptions_captured_not_raised(self):
        def body(x):
            if x == 2:
                raise ValueError("two")
            return x

        out = pfor([1, 2, 3], body)
        assert out[1] == 1
        assert isinstance(out[2], ValueError)
        assert out[3] == 3

    def test_single_item_exception_captured(self):
        out = pfor([1], lambda x: 1 / 0)
        assert isinstance(out[1], ZeroDivisionError)

    def test_runs_in_parallel(self):
        barrier = threading.Barrier(4, timeout=5)

        def body(x):
            barrier.wait()  # deadlocks unless all 4 run concurrently
            return x

        start = time.perf_counter()
        out = pfor([1, 2, 3, 4], body)
        assert time.perf_counter() - start < 5
        assert set(out.values()) == {1, 2, 3, 4}
