"""Scalar and vectorized arithmetic in GF(2^8).

Two layers:

* scalar helpers (``add``, ``mul``, ``inv`` ...) operating on Python ints
  in [0, 255] — used by matrix algebra and tests;
* block kernels (``mul_block``, ``addmul_block`` ...) operating on numpy
  ``uint8`` arrays — used on the data path (encode, decode, delta
  updates).  These correspond to the paper's hand-optimized C routines
  and keep Delta/Add times independent of the code dimension k
  (Fig. 8b).  Every multiply by a coefficient other than 0 or 1 goes
  through ``_mul``: blocks of at least ``PAIR_FLOOR`` bytes (and even
  length) are multiplied two bytes per lookup through a 65 536-entry
  uint16 table for the coefficient, shorter ones one byte per lookup
  through the coefficient's 256-entry row of ``MUL_TABLE``.  Both give
  the same bytes.

Addition in GF(2^8) is XOR, so addition and subtraction coincide and
the redundant-block update ``add`` used by storage nodes is commutative
and associative — the property the whole AJX protocol rests on.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.gf.tables import (
    EXP_TABLE,
    FIELD_SIZE,
    GROUP_ORDER,
    INV_TABLE,
    LOG_TABLE,
    MUL_TABLE,
)


class GFError(ValueError):
    """Raised on invalid field operations (e.g. division by zero)."""


def _check_element(a: int) -> None:
    if not 0 <= a < FIELD_SIZE:
        raise GFError(f"{a!r} is not an element of GF({FIELD_SIZE})")


def add(a: int, b: int) -> int:
    """Field addition (XOR)."""
    _check_element(a)
    _check_element(b)
    return a ^ b


def sub(a: int, b: int) -> int:
    """Field subtraction; identical to addition in characteristic 2."""
    return add(a, b)


def mul(a: int, b: int) -> int:
    """Field multiplication via log/antilog tables."""
    _check_element(a)
    _check_element(b)
    if a == 0 or b == 0:
        return 0
    return int(EXP_TABLE[(int(LOG_TABLE[a]) + int(LOG_TABLE[b])) % GROUP_ORDER])


def inv(a: int) -> int:
    """Multiplicative inverse; raises :class:`GFError` on zero."""
    _check_element(a)
    if a == 0:
        raise GFError("zero has no multiplicative inverse")
    return int(INV_TABLE[a])


def div(a: int, b: int) -> int:
    """Field division ``a / b``; raises :class:`GFError` if b == 0."""
    _check_element(a)
    if b == 0:
        raise GFError("division by zero in GF(256)")
    if a == 0:
        return 0
    return mul(a, inv(b))


def pow_(a: int, exponent: int) -> int:
    """Field exponentiation ``a**exponent`` (exponent may be negative)."""
    _check_element(a)
    if a == 0:
        if exponent == 0:
            return 1
        if exponent < 0:
            raise GFError("zero has no negative powers")
        return 0
    log_a = int(LOG_TABLE[a])
    return int(EXP_TABLE[(log_a * exponent) % GROUP_ORDER])


# ---------------------------------------------------------------------------
# Block (vectorized) kernels.
# ---------------------------------------------------------------------------


def as_block(data: bytes | bytearray | np.ndarray) -> np.ndarray:
    """Return ``data`` as a contiguous uint8 numpy array (no copy if possible)."""
    if isinstance(data, np.ndarray):
        if data.dtype != np.uint8:
            raise GFError(f"blocks must be uint8 arrays, got {data.dtype}")
        return np.ascontiguousarray(data)
    return np.frombuffer(bytes(data), dtype=np.uint8)


def add_block(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise field addition of two blocks (XOR)."""
    return np.bitwise_xor(a, b)


def iadd_block(acc: np.ndarray, b: np.ndarray) -> np.ndarray:
    """In-place field addition ``acc ^= b``; returns ``acc``."""
    np.bitwise_xor(acc, b, out=acc)
    return acc


def sub_block(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise field subtraction (identical to addition)."""
    return np.bitwise_xor(a, b)


#: Shortest block multiplied through a pair table.  Below it the cold
#: 128 KiB table costs more than the halved lookups save: with no floor,
#: 1 KiB writes slowed by 10-55 % although a warm microbenchmark favours
#: the pair table at every size.
PAIR_FLOOR = 16 * 1024

#: Most pair tables kept at once (128 KiB each, so 8 MiB).  All 255 would
#: be 32 MiB; a full cache is emptied and refilled by the coefficients
#: still in use.
_PAIR_CACHE_LIMIT = 64

#: Every two-byte pattern, as the bytes of the uint16 words 0..65535 in
#: native byte order.
_PAIRS = np.arange(1 << 16, dtype=np.uint16).view(np.uint8)
_pair_tables: dict[int, np.ndarray] = {}
_pair_lock = threading.Lock()


def _pair_table(coeff: int) -> np.ndarray:
    """The uint16 table whose entry ``w`` holds ``coeff`` times each of
    the two bytes of the word ``w``."""
    table = _pair_tables.get(coeff)
    if table is None:
        table = MUL_TABLE[coeff].take(_PAIRS).view(np.uint16)
        with _pair_lock:
            if len(_pair_tables) >= _PAIR_CACHE_LIMIT:
                _pair_tables.clear()
            _pair_tables[coeff] = table
    return table


def _mul(coeff: int, block: np.ndarray) -> np.ndarray:
    """``coeff * block`` as a new array, for ``coeff`` not 0 or 1."""
    size = block.size
    if (size >= PAIR_FLOOR and not size & 1 and block.ndim == 1
            and block.flags.c_contiguous):
        return _pair_table(coeff).take(block.view(np.uint16)).view(np.uint8)
    return MUL_TABLE[coeff][block]


def mul_block(coeff: int, block: np.ndarray) -> np.ndarray:
    """Multiply every byte of ``block`` by the scalar ``coeff``.

    O(len) table lookups with no per-byte Python work: two bytes per
    lookup through a uint16 pair table on blocks of at least
    ``PAIR_FLOOR`` bytes, one byte per lookup through a 256-entry row of
    the multiplication table below that.
    """
    _check_element(coeff)
    if coeff == 0:
        return np.zeros_like(block)
    if coeff == 1:
        return block.copy()
    return _mul(coeff, block)


def addmul_block(acc: np.ndarray, coeff: int, block: np.ndarray) -> np.ndarray:
    """``acc += coeff * block`` in place; returns ``acc``.

    This is the storage-node ``add`` kernel and the inner loop of
    encoding/decoding.
    """
    _check_element(coeff)
    if coeff == 0:
        return acc
    if coeff == 1:
        np.bitwise_xor(acc, block, out=acc)
        return acc
    np.bitwise_xor(acc, _mul(coeff, block), out=acc)
    return acc


def delta_block(coeff: int, new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """Compute ``coeff * (new - old)`` — the client-side Delta of Fig. 8a.

    This is what a client sends to each redundant node on a WRITE
    (line 10 of the paper's Fig. 5).
    """
    return mul_block(coeff, np.bitwise_xor(new, old))


def blocks_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """True when two blocks hold identical bytes."""
    return a.shape == b.shape and bool(np.array_equal(a, b))
