"""Systematic k-of-n Reed-Solomon erasure codes over GF(2^8).

This is the code family the paper targets: linear MDS codes where each
redundant block is ``b_j = sum_i alpha_{ji} b_i`` (Section 3.3), so a
single-block update can be propagated to redundant blocks with the
commutative delta ``alpha_{ji} * (v - w)``.

The public object is :class:`ReedSolomonCode`:

* ``encode(data_blocks)``      -> full stripe of n blocks
* ``decode(available)``        -> original k data blocks from any k
* ``decode_one(index, avail)`` -> stripe block ``index`` alone from any k
* ``reconstruct_stripe(avail)``-> all n blocks (used by recovery)
* ``coefficient(j, i)``        -> alpha_{ji} for the delta update
* ``delta(j, i, new, old)``    -> what a client sends to redundant node j
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.gf import field
from repro.erasure import matrix


class DecodeError(ValueError):
    """Raised when fewer than k blocks are available for decoding."""


class ReedSolomonCode:
    """A systematic k-of-n MDS Reed-Solomon code.

    Blocks are numpy uint8 arrays of equal length.  Stripe indices are
    0-based: indices ``0..k-1`` are data blocks, ``k..n-1`` redundant
    blocks.  (The paper uses 1-based indices; the mapping is trivial.)
    """

    def __init__(self, k: int, n: int, construction: str = "vandermonde"):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if n <= k:
            raise ValueError(f"need n > k for redundancy, got k={k} n={n}")
        self.k = k
        self.n = n
        self.construction = construction
        self.generator = matrix.systematic_generator(n, k, construction)
        self._decode_cache: dict[tuple[int, ...], np.ndarray] = {}

    # -- identity ---------------------------------------------------------

    @property
    def redundancy(self) -> int:
        """Number of redundant blocks p = n - k."""
        return self.n - self.k

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ReedSolomonCode(k={self.k}, n={self.n}, {self.construction!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ReedSolomonCode)
            and (self.k, self.n, self.construction)
            == (other.k, other.n, other.construction)
        )

    def __hash__(self) -> int:
        return hash((self.k, self.n, self.construction))

    # -- encoding ---------------------------------------------------------

    def coefficient(self, j: int, i: int) -> int:
        """alpha_{ji}: weight of data block ``i`` in stripe block ``j``."""
        if not 0 <= j < self.n:
            raise IndexError(f"stripe index {j} out of range for n={self.n}")
        if not 0 <= i < self.k:
            raise IndexError(f"data index {i} out of range for k={self.k}")
        return int(self.generator[j, i])

    def encode(self, data_blocks: list[np.ndarray]) -> list[np.ndarray]:
        """Encode k data blocks into the full n-block stripe."""
        self._check_data(data_blocks)
        redundant = matrix.matvec_blocks(self.generator[self.k :], data_blocks)
        return [blk.copy() for blk in data_blocks] + redundant

    def encode_redundant(self, data_blocks: list[np.ndarray]) -> list[np.ndarray]:
        """Compute only the n-k redundant blocks."""
        self._check_data(data_blocks)
        return matrix.matvec_blocks(self.generator[self.k :], data_blocks)

    def delta(self, j: int, i: int, new: np.ndarray, old: np.ndarray) -> np.ndarray:
        """The update a client sends redundant node ``j`` after swapping
        data block ``i`` from ``old`` to ``new`` (Fig. 5 line 10)."""
        return field.delta_block(self.coefficient(j, i), new, old)

    def parity_delta(
        self, j: int, indices: list[int], diffs: list[np.ndarray]
    ) -> np.ndarray:
        """The change of redundant block ``j`` when data blocks
        ``indices`` change by ``diffs`` (each new - old): generator row
        ``j``, restricted to those columns, applied to the differences.
        One block's case is one scalar multiply."""
        if len(indices) == 1:
            return field.mul_block(self.coefficient(j, indices[0]), diffs[0])
        return matrix.matvec_blocks(self.generator[j : j + 1, indices], diffs)[0]

    # -- decoding ---------------------------------------------------------

    def _decode_indices(self, available: Mapping[int, np.ndarray]) -> tuple[int, ...]:
        """The k smallest available indices; raises :class:`DecodeError`
        when fewer than k blocks are available."""
        if len(available) < self.k:
            raise DecodeError(
                f"need at least k={self.k} blocks, got {len(available)}"
            )
        return tuple(sorted(available))[: self.k]

    def _decode_matrix(self, indices: tuple[int, ...]) -> np.ndarray:
        """k x k matrix mapping blocks at ``indices`` back to data blocks."""
        cached = self._decode_cache.get(indices)
        if cached is not None:
            return cached
        sub = self.generator[list(indices), :]
        inverse = matrix.invert(sub)
        if len(self._decode_cache) > 4096:
            self._decode_cache.clear()
        self._decode_cache[indices] = inverse
        return inverse

    def decode(self, available: Mapping[int, np.ndarray]) -> list[np.ndarray]:
        """Recover the k data blocks from any k available stripe blocks.

        ``available`` maps stripe index -> block.  Extra blocks beyond k
        are ignored (the k smallest indices are used, preferring the
        cheap systematic path when all data blocks survive).
        """
        indices = self._decode_indices(available)
        if indices == tuple(range(self.k)):
            return [available[i].copy() for i in range(self.k)]
        inverse = self._decode_matrix(indices)
        return matrix.matvec_blocks(inverse, [available[i] for i in indices])

    def decode_one(
        self, index: int, available: Mapping[int, np.ndarray]
    ) -> np.ndarray:
        """Recover stripe block ``index`` alone from any k available ones.

        One row of the decode matrix applied to the k blocks ``decode``
        would use: k multiply-adds where ``decode`` does k².  A redundant
        ``index`` takes its generator row times the inverse.  The bytes
        equal those of ``decode(available)[index]`` (or, redundant, of
        ``reconstruct_stripe(available)[index]``).
        """
        if not 0 <= index < self.n:
            raise IndexError(f"stripe index {index} out of range for n={self.n}")
        indices = self._decode_indices(available)
        inverse = self._decode_matrix(indices)
        row = (inverse[index : index + 1] if index < self.k
               else matrix.matmul(self.generator[index : index + 1], inverse))
        return matrix.matvec_blocks(row, [available[i] for i in indices])[0]

    def reconstruct_stripe(
        self, available: Mapping[int, np.ndarray]
    ) -> list[np.ndarray]:
        """Recover *all* n stripe blocks from any k available ones.

        This is ``erasure_decode`` as used by the recovery algorithm
        (Fig. 6 line 21): every storage node, failed or not, gets a
        freshly consistent block written back.
        """
        data = self.decode(available)
        return data + self.encode_redundant(data)

    # -- helpers ----------------------------------------------------------

    def _check_data(self, data_blocks: list[np.ndarray]) -> None:
        if len(data_blocks) != self.k:
            raise ValueError(
                f"expected k={self.k} data blocks, got {len(data_blocks)}"
            )
        sizes = {blk.shape for blk in data_blocks}
        if len(sizes) > 1:
            raise ValueError(f"data blocks differ in shape: {sizes}")

    def is_consistent_stripe(self, stripe: list[np.ndarray]) -> bool:
        """True when ``stripe`` (n blocks) satisfies the code equations.

        Used by tests and by the quiescent-consistency invariant checks.
        """
        if len(stripe) != self.n:
            raise ValueError(f"expected n={self.n} blocks, got {len(stripe)}")
        expected = self.encode_redundant(stripe[: self.k])
        return all(
            field.blocks_equal(expected[j], stripe[self.k + j])
            for j in range(self.redundancy)
        )
