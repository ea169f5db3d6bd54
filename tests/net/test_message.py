"""Payload-size estimation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.net.message import SCALAR_BYTES, estimate_size


class TestEstimateSize:
    def test_none_is_free(self):
        assert estimate_size(None) == 0

    def test_numpy_exact(self):
        assert estimate_size(np.zeros(1024, dtype=np.uint8)) == 1024

    def test_bytes(self):
        assert estimate_size(b"abcd") == 4

    def test_str(self):
        assert estimate_size("client-0") == 8

    def test_scalars(self):
        assert estimate_size(7) == SCALAR_BYTES
        assert estimate_size(3.14) == SCALAR_BYTES
        assert estimate_size(True) == SCALAR_BYTES

    def test_containers_sum(self):
        assert estimate_size([1, 2]) == 2 * SCALAR_BYTES
        assert estimate_size((b"ab", b"cd")) == 4
        assert estimate_size({1: b"xy"}) == SCALAR_BYTES + 2

    def test_dataclass_fields(self):
        @dataclass
        class Thing:
            a: int
            payload: bytes

        assert estimate_size(Thing(1, b"abc")) == SCALAR_BYTES + 3

    def test_unknown_object_is_scalar(self):
        assert estimate_size(object()) == SCALAR_BYTES
