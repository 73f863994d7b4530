"""Packed dimension-level masks (Section III-E).

MVE masks whole elements of the highest dimension: one mask bit per
element, held in a mask control register of :data:`MAX_MASK_ELEMENTS`
bits.  Every vector instruction snapshots the mask that is active when it
issues.  :class:`DimMask` is that snapshot as an immutable value -- the
highest-dimension ``length``, the lane bits packed eight to a byte
(``np.packbits`` order, zero padding) and the number of set bits, counted
once at construction.  Equal masks compare and hash equal, so a trace's
snapshots can be shared and deduplicated freely.

An empty mask (``length == 0``, :attr:`DimMask.EMPTY`) means "no mask":
every element is active.  Register spills and other compiler-inserted
instructions carry it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Sequence

import numpy as np

__all__ = ["DimMask"]


@dataclass(frozen=True, slots=True)
class DimMask:
    """An immutable, packed highest-dimension mask snapshot."""

    length: int
    bits: bytes = field(repr=False)
    #: number of enabled elements (the popcount of ``bits``)
    count: int = field(init=False, compare=False)

    EMPTY: ClassVar["DimMask"]

    def __post_init__(self) -> None:
        if len(self.bits) != (self.length + 7) // 8:
            raise ValueError(
                f"a {self.length}-element mask packs into {(self.length + 7) // 8} "
                f"bytes, got {len(self.bits)}"
            )
        object.__setattr__(self, "count", int.from_bytes(self.bits, "big").bit_count())

    @classmethod
    def from_lanes(cls, lanes: Sequence[bool] | np.ndarray) -> "DimMask":
        """The mask enabling exactly the elements whose entry is true."""
        lanes = np.asarray(lanes, dtype=bool)
        return cls(int(lanes.size), np.packbits(lanes).tobytes())

    def __len__(self) -> int:
        return self.length

    @property
    def all_set(self) -> bool:
        """Whether every element is enabled (an empty mask counts as set)."""
        return self.count == self.length

    def lanes(self) -> np.ndarray:
        """One bool per highest-dimension element, True = enabled."""
        packed = np.frombuffer(self.bits, dtype=np.uint8)
        return np.unpackbits(packed, count=self.length).view(bool)

    def active_elements(self, shape_lengths: Sequence[int]) -> int:
        """Elements of a ``shape_lengths`` vector left active by this mask."""
        total = 1
        for length in shape_lengths:
            total *= length
        if not self.length:
            return total
        return total // shape_lengths[-1] * self.count


DimMask.EMPTY = DimMask(0, b"")
