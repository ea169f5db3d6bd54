"""Identifiers used throughout the protocol.

* :class:`Tid` — unique write identifier ``<seq, i, p>`` (Fig. 5 line 2):
  a client-local sequence number, the data-block stripe position being
  written, and the writing client's id.  ``find_consistent`` relies on
  the embedded stripe position to attribute tids to data blocks
  (the ``H_S(r, j)`` sets of Fig. 6).

* :class:`BlockAddr` — names one erasure-code *block slot*: a volume,
  a stripe number, and a position within the stripe (0..n-1).  The
  paper's pseudocode is written for a single stripe; a real volume has
  many stripes, each an independent instance of the per-block state
  machine, and the address selects which instance an RPC touches.

Both are named tuples: immutable, and hashed and compared in C, which
the call path does for every frame address and tid it handles.
"""

from __future__ import annotations

from typing import NamedTuple


class Tid(NamedTuple):
    """Unique identifier of one WRITE operation."""

    seq: int  # client-local sequence number
    index: int  # stripe position (0-based) of the data block written
    client: str  # writing client's id

    def __repr__(self) -> str:
        return f"Tid({self.seq},{self.index},{self.client})"


class BlockAddr(NamedTuple):
    """Address of one block slot within one stripe of one volume."""

    volume: str
    stripe: int
    index: int  # stripe position, 0-based: < k data, >= k redundant

    def sibling(self, index: int) -> "BlockAddr":
        """Address of another position in the same stripe."""
        return BlockAddr(self.volume, self.stripe, index)

    def __repr__(self) -> str:
        return f"{self.volume}/s{self.stripe}/b{self.index}"
