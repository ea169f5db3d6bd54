"""Erasure-code substrate: matrix algebra, Reed-Solomon codes, striping."""

from repro.erasure.matrix import SingularMatrixError, systematic_generator
from repro.erasure.rs import DecodeError, ReedSolomonCode
from repro.erasure.striping import BlockLocation, StripeLayout

__all__ = [
    "BlockLocation",
    "DecodeError",
    "ReedSolomonCode",
    "SingularMatrixError",
    "StripeLayout",
    "systematic_generator",
]
