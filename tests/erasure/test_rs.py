"""Reed-Solomon codes: MDS property, delta updates, concurrency algebra."""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.erasure.rs import DecodeError, ReedSolomonCode
from repro.gf import field


def make_data(rng, k, size=64):
    return [rng.integers(0, 256, size, dtype=np.uint8) for _ in range(k)]


class TestConstruction:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ReedSolomonCode(0, 4)
        with pytest.raises(ValueError):
            ReedSolomonCode(4, 4)
        with pytest.raises(ValueError):
            ReedSolomonCode(5, 3)

    def test_redundancy(self):
        assert ReedSolomonCode(3, 5).redundancy == 2

    def test_equality_and_hash(self):
        a, b = ReedSolomonCode(2, 4), ReedSolomonCode(2, 4)
        assert a == b
        assert hash(a) == hash(b)
        assert a != ReedSolomonCode(2, 5)

    def test_coefficient_bounds(self):
        code = ReedSolomonCode(2, 4)
        with pytest.raises(IndexError):
            code.coefficient(4, 0)
        with pytest.raises(IndexError):
            code.coefficient(3, 2)

    def test_systematic_coefficients(self):
        code = ReedSolomonCode(3, 5)
        for i in range(3):
            for j in range(3):
                assert code.coefficient(j, i) == (1 if i == j else 0)


class TestEncodeDecode:
    @pytest.mark.parametrize("k,n", [(2, 3), (2, 4), (3, 5), (4, 6), (5, 8)])
    def test_any_k_blocks_decode(self, rng, k, n):
        code = ReedSolomonCode(k, n)
        data = make_data(rng, k)
        stripe = code.encode(data)
        for subset in itertools.combinations(range(n), k):
            decoded = code.decode({i: stripe[i] for i in subset})
            for original, recovered in zip(data, decoded):
                assert np.array_equal(original, recovered), subset

    def test_too_few_blocks_raises(self, rng):
        code = ReedSolomonCode(3, 5)
        stripe = code.encode(make_data(rng, 3))
        with pytest.raises(DecodeError):
            code.decode({0: stripe[0], 4: stripe[4]})

    def test_encode_validates_block_count(self, rng):
        code = ReedSolomonCode(3, 5)
        with pytest.raises(ValueError):
            code.encode(make_data(rng, 2))

    def test_encode_validates_shapes(self, rng):
        code = ReedSolomonCode(2, 4)
        with pytest.raises(ValueError):
            code.encode(
                [np.zeros(8, np.uint8), np.zeros(16, np.uint8)]
            )

    def test_encode_does_not_alias_inputs(self, rng):
        code = ReedSolomonCode(2, 4)
        data = make_data(rng, 2)
        stripe = code.encode(data)
        stripe[0][:] = 0
        assert data[0].any()

    def test_reconstruct_stripe_restores_all_blocks(self, rng):
        code = ReedSolomonCode(3, 6)
        data = make_data(rng, 3)
        stripe = code.encode(data)
        rebuilt = code.reconstruct_stripe({1: stripe[1], 3: stripe[3], 5: stripe[5]})
        assert len(rebuilt) == 6
        for a, b in zip(stripe, rebuilt):
            assert np.array_equal(a, b)

    def test_decode_prefers_systematic_fast_path(self, rng):
        code = ReedSolomonCode(2, 4)
        data = make_data(rng, 2)
        stripe = code.encode(data)
        # All data blocks available: decode must be exact copies.
        out = code.decode({0: stripe[0], 1: stripe[1], 3: stripe[3]})
        assert np.array_equal(out[0], data[0])
        assert np.array_equal(out[1], data[1])

    def test_is_consistent_stripe(self, rng):
        code = ReedSolomonCode(2, 4)
        stripe = code.encode(make_data(rng, 2))
        assert code.is_consistent_stripe(stripe)
        stripe[3][0] ^= 1
        assert not code.is_consistent_stripe(stripe)
        with pytest.raises(ValueError):
            code.is_consistent_stripe(stripe[:3])

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_mds_property_random(self, k, p, seed):
        code = ReedSolomonCode(k, k + p)
        rng = np.random.default_rng(seed)
        data = make_data(rng, k, size=16)
        stripe = code.encode(data)
        indices = list(range(k + p))
        rnd = random.Random(seed)
        rnd.shuffle(indices)
        decoded = code.decode({i: stripe[i] for i in indices[:k]})
        for original, recovered in zip(data, decoded):
            assert np.array_equal(original, recovered)


class TestDeltaUpdates:
    def test_delta_update_preserves_code(self, rng):
        code = ReedSolomonCode(3, 5)
        data = make_data(rng, 3)
        stripe = code.encode(data)
        new = rng.integers(0, 256, 64, dtype=np.uint8)
        old = stripe[1].copy()
        stripe[1] = new
        for j in range(3, 5):
            field.iadd_block(stripe[j], code.delta(j, 1, new, old))
        assert code.is_consistent_stripe(stripe)

    @pytest.mark.parametrize("indices", [[1], [0, 2], [0, 1, 2]])
    def test_parity_delta_sums_the_block_deltas(self, rng, indices):
        """A write call's add for redundant block j carries the sum of
        its blocks' Fig. 5 deltas; one block's is that block's delta."""
        code = ReedSolomonCode(3, 5)
        old = make_data(rng, 3)
        new = make_data(rng, 3)
        diffs = [field.sub_block(new[i], old[i]) for i in indices]
        for j in range(3, 5):
            expected = np.zeros(64, dtype=np.uint8)
            for i in indices:
                field.iadd_block(expected, code.delta(j, i, new[i], old[i]))
            assert np.array_equal(code.parity_delta(j, indices, diffs), expected)

    def test_interleaved_concurrent_deltas_commute(self, rng):
        """The Fig. 3(C) property: two writers updating different data
        blocks may interleave their adds arbitrarily and the stripe
        still converges to the correct encoding."""
        code = ReedSolomonCode(2, 4)
        data = make_data(rng, 2)
        stripe = code.encode(data)
        new0 = rng.integers(0, 256, 64, dtype=np.uint8)
        new1 = rng.integers(0, 256, 64, dtype=np.uint8)
        old0, old1 = stripe[0].copy(), stripe[1].copy()
        stripe[0], stripe[1] = new0, new1
        updates = [
            (j, code.delta(j, 0, new0, old0)) for j in (2, 3)
        ] + [(j, code.delta(j, 1, new1, old1)) for j in (2, 3)]
        rnd = random.Random(99)
        rnd.shuffle(updates)
        for j, delta in updates:
            field.iadd_block(stripe[j], delta)
        assert code.is_consistent_stripe(stripe)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_many_writers_any_interleaving(self, k, p, writes, seed):
        code = ReedSolomonCode(k, k + p)
        rng = np.random.default_rng(seed)
        rnd = random.Random(seed)
        data = make_data(rng, k, size=8)
        stripe = code.encode(data)
        pending = []
        for _ in range(writes):
            i = rnd.randrange(k)
            new = rng.integers(0, 256, 8, dtype=np.uint8)
            old = stripe[i].copy()
            stripe[i] = new
            pending.extend(
                (j, code.delta(j, i, new, old)) for j in range(k, k + p)
            )
        rnd.shuffle(pending)
        for j, delta in pending:
            field.iadd_block(stripe[j], delta)
        assert code.is_consistent_stripe(stripe)

    def test_decode_cache_reused_and_bounded(self, rng):
        code = ReedSolomonCode(2, 4)
        stripe = code.encode(make_data(rng, 2))
        code.decode({1: stripe[1], 2: stripe[2]})
        assert (1, 2) in code._decode_cache
        first = code._decode_cache[(1, 2)]
        code.decode({1: stripe[1], 2: stripe[2]})
        assert code._decode_cache[(1, 2)] is first


class TestDecodeOne:
    @pytest.mark.parametrize("size", [8 * 1024, 64 * 1024])
    def test_matches_decode_for_every_k_subset(self, rng, size):
        """Both kernel paths: 8 KiB gathers bytes, 64 KiB byte pairs."""
        k, n = 6, 9
        code = ReedSolomonCode(k, n)
        stripe = code.encode(make_data(rng, k, size))
        for subset in itertools.combinations(range(n), k):
            available = {j: stripe[j] for j in subset}
            data = code.decode(available)
            for i in range(k):
                assert np.array_equal(code.decode_one(i, available), data[i])
            redundant = code.encode_redundant(data)[0]
            assert np.array_equal(code.decode_one(k, available), redundant)

    def test_rejects_too_few_blocks_and_bad_index(self, rng):
        code = ReedSolomonCode(3, 5)
        stripe = code.encode(make_data(rng, 3))
        with pytest.raises(DecodeError):
            code.decode_one(0, {1: stripe[1], 4: stripe[4]})
        with pytest.raises(IndexError):
            code.decode_one(5, dict(enumerate(stripe)))
