"""Scalar and block arithmetic in GF(2^8), including field axioms."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.gf import field
from repro.gf.tables import MUL_TABLE

elements = st.integers(min_value=0, max_value=255)
nonzero = st.integers(min_value=1, max_value=255)
blocks = st.binary(min_size=1, max_size=256).map(
    lambda b: np.frombuffer(b, dtype=np.uint8).copy()
)


class TestScalarOps:
    def test_add_is_xor(self):
        assert field.add(0b1100, 0b1010) == 0b0110

    def test_sub_equals_add(self):
        assert field.sub(200, 123) == field.add(200, 123)

    def test_mul_by_zero(self):
        assert field.mul(0, 137) == 0
        assert field.mul(137, 0) == 0

    def test_mul_by_one(self):
        for a in (0, 1, 77, 255):
            assert field.mul(1, a) == a

    def test_div_by_zero_raises(self):
        with pytest.raises(field.GFError):
            field.div(5, 0)

    def test_inv_zero_raises(self):
        with pytest.raises(field.GFError):
            field.inv(0)

    def test_out_of_range_rejected(self):
        with pytest.raises(field.GFError):
            field.add(256, 0)
        with pytest.raises(field.GFError):
            field.mul(-1, 3)

    def test_pow_basics(self):
        assert field.pow_(0, 0) == 1
        assert field.pow_(0, 5) == 0
        assert field.pow_(3, 1) == 3
        assert field.pow_(7, 0) == 1

    def test_pow_negative(self):
        assert field.mul(field.pow_(9, -1), 9) == 1
        with pytest.raises(field.GFError):
            field.pow_(0, -1)

    def test_pow_matches_repeated_mul(self):
        acc = 1
        for e in range(1, 10):
            acc = field.mul(acc, 13)
            assert field.pow_(13, e) == acc


class TestFieldAxioms:
    @given(elements, elements)
    def test_add_commutative(self, a, b):
        assert field.add(a, b) == field.add(b, a)

    @given(elements, elements)
    def test_mul_commutative(self, a, b):
        assert field.mul(a, b) == field.mul(b, a)

    @given(elements, elements, elements)
    def test_mul_associative(self, a, b, c):
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))

    @given(elements, elements, elements)
    def test_distributive(self, a, b, c):
        left = field.mul(a, field.add(b, c))
        right = field.add(field.mul(a, b), field.mul(a, c))
        assert left == right

    @given(elements)
    def test_additive_inverse_is_self(self, a):
        assert field.add(a, a) == 0

    @given(nonzero)
    def test_multiplicative_inverse(self, a):
        assert field.mul(a, field.inv(a)) == 1

    @given(nonzero, nonzero)
    def test_div_mul_roundtrip(self, a, b):
        assert field.mul(field.div(a, b), b) == a


class TestBlockKernels:
    def test_as_block_from_bytes(self):
        blk = field.as_block(b"\x01\x02\x03")
        assert blk.dtype == np.uint8
        assert list(blk) == [1, 2, 3]

    def test_as_block_rejects_wrong_dtype(self):
        with pytest.raises(field.GFError):
            field.as_block(np.zeros(4, dtype=np.int32))

    def test_add_block_is_xor(self, rng):
        a = rng.integers(0, 256, 64, dtype=np.uint8)
        b = rng.integers(0, 256, 64, dtype=np.uint8)
        assert np.array_equal(field.add_block(a, b), a ^ b)

    def test_iadd_block_in_place(self, rng):
        a = rng.integers(0, 256, 16, dtype=np.uint8)
        orig = a.copy()
        b = rng.integers(0, 256, 16, dtype=np.uint8)
        out = field.iadd_block(a, b)
        assert out is a
        assert np.array_equal(a, orig ^ b)

    def test_mul_block_zero_and_one(self, rng):
        blk = rng.integers(0, 256, 32, dtype=np.uint8)
        assert not field.mul_block(0, blk).any()
        one = field.mul_block(1, blk)
        assert np.array_equal(one, blk)
        assert one is not blk  # must be a copy

    @given(st.integers(min_value=0, max_value=255), blocks)
    def test_mul_block_matches_scalar(self, coeff, blk):
        out = field.mul_block(coeff, blk)
        for i in range(len(blk)):
            assert out[i] == field.mul(coeff, int(blk[i]))

    def test_addmul_block_accumulates(self, rng):
        acc = rng.integers(0, 256, 16, dtype=np.uint8)
        expected = acc.copy()
        blk = rng.integers(0, 256, 16, dtype=np.uint8)
        field.addmul_block(acc, 3, blk)
        for i in range(16):
            expected[i] = field.add(int(expected[i]), field.mul(3, int(blk[i])))
        assert np.array_equal(acc, expected)

    def test_addmul_coeff_zero_is_noop(self, rng):
        acc = rng.integers(0, 256, 16, dtype=np.uint8)
        before = acc.copy()
        field.addmul_block(acc, 0, acc.copy())
        assert np.array_equal(acc, before)

    @given(st.integers(min_value=0, max_value=255), blocks, blocks)
    def test_delta_block_definition(self, coeff, new, old):
        size = min(len(new), len(old))
        new, old = new[:size], old[:size]
        delta = field.delta_block(coeff, new, old)
        assert np.array_equal(delta, field.mul_block(coeff, new ^ old))

    def test_delta_roundtrip_updates_redundant_block(self, rng):
        """The §3.6 core identity: applying coeff*(new-old) to an
        encoded block swaps old's contribution for new's."""
        coeff = 29
        old = rng.integers(0, 256, 64, dtype=np.uint8)
        new = rng.integers(0, 256, 64, dtype=np.uint8)
        other = rng.integers(0, 256, 64, dtype=np.uint8)
        redundant = field.add_block(field.mul_block(coeff, old), other)
        updated = field.add_block(
            redundant, field.delta_block(coeff, new, old)
        )
        expected = field.add_block(field.mul_block(coeff, new), other)
        assert np.array_equal(updated, expected)

    def test_blocks_equal(self, rng):
        a = rng.integers(0, 256, 8, dtype=np.uint8)
        assert field.blocks_equal(a, a.copy())
        b = a.copy()
        b[3] ^= 1
        assert not field.blocks_equal(a, b)
        assert not field.blocks_equal(a, a[:4])


class TestPairKernel:
    """Blocks of at least ``PAIR_FLOOR`` bytes multiply through uint16
    pair tables; the bytes must equal the one-byte gather's."""

    SIZE = field.PAIR_FLOOR

    @staticmethod
    def gather(coeff: int, blk: np.ndarray) -> np.ndarray:
        return MUL_TABLE[coeff][blk]

    def test_every_coefficient_matches_byte_gather(self, rng):
        blk = rng.integers(0, 256, self.SIZE, dtype=np.uint8)
        for coeff in range(2, 256):
            out = field.mul_block(coeff, blk)
            assert coeff in field._pair_tables  # took the pair path
            assert out.dtype == np.uint8 and out.shape == blk.shape
            assert np.array_equal(out, self.gather(coeff, blk)), coeff

    @pytest.mark.parametrize(
        "layout", ["odd", "read-only", "unaligned", "strided"]
    )
    def test_layouts_match_byte_gather(self, rng, layout):
        data = rng.integers(0, 256, 2 * self.SIZE, dtype=np.uint8)
        if layout == "strided":
            blk = data[::2]
        elif layout == "odd":
            blk = data[: self.SIZE + 1]
        elif layout == "read-only":
            blk = np.frombuffer(data[: self.SIZE].tobytes(), dtype=np.uint8)
            assert not blk.flags.writeable
        else:
            blk = data[1 : self.SIZE + 1]
            assert not blk.view(np.uint16).flags.aligned
        for coeff in (2, 37, 255):
            assert np.array_equal(field.mul_block(coeff, blk),
                                  self.gather(coeff, blk))

    @pytest.mark.parametrize("coeff", [0, 1, 2, 142, 255])
    def test_kernels_agree_with_byte_gather(self, rng, coeff):
        new = rng.integers(0, 256, self.SIZE, dtype=np.uint8)
        old = rng.integers(0, 256, self.SIZE, dtype=np.uint8)
        acc = rng.integers(0, 256, self.SIZE, dtype=np.uint8)
        assert np.array_equal(field.mul_block(coeff, new),
                              self.gather(coeff, new))
        expected = acc ^ self.gather(coeff, new)
        assert field.addmul_block(acc, coeff, new) is acc
        assert np.array_equal(acc, expected)
        assert np.array_equal(field.delta_block(coeff, new, old),
                              self.gather(coeff, new ^ old))

    def test_cache_stays_bounded(self, rng):
        blk = rng.integers(0, 256, self.SIZE, dtype=np.uint8)
        for coeff in range(2, 256):
            field.mul_block(coeff, blk)
            assert len(field._pair_tables) <= field._PAIR_CACHE_LIMIT

    def test_threads_get_correct_bytes_while_cache_clears(self, rng):
        blk = rng.integers(0, 256, self.SIZE, dtype=np.uint8)
        expected = {c: self.gather(c, blk) for c in range(2, 256)}
        wrong: list[tuple[int, int]] = []

        def worker(seed: int) -> None:
            order = np.random.default_rng(seed).permutation(np.arange(2, 256))
            for coeff in map(int, order):
                acc = np.zeros_like(blk)
                field.addmul_block(acc, coeff, blk)
                if not np.array_equal(acc, expected[coeff]):
                    wrong.append((seed, coeff))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(s,))
                       for s in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert len(field._pair_tables) <= field._PAIR_CACHE_LIMIT
