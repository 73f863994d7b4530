"""Logical and physical register abstractions plus control registers.

Section III-B of the paper: in-cache physical registers (PRs) span all
compute-enabled SRAM arrays.  With the default geometry (32 arrays of
256x256 bit-cells) every PR holds 8192 elements, one per bit-line (SIMD
lane), laid out vertically (bit-serial).  The number of *available* PRs is
not fixed: it depends on the element width because wider elements consume
more word-lines.

Programmers never address physical registers directly.  They operate on
*logical* multi-dimensional registers whose shape is defined by the
``DimCount`` / ``Dim[i].Length`` control registers; the MVE controller
flattens logical indices onto the SIMD lanes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .encoding import MAX_DIMS
from .mask import DimMask

__all__ = [
    "VectorShape",
    "PhysicalRegisterFile",
    "ControlRegisters",
    "MAX_MASK_ELEMENTS",
]

#: The highest dimension is limited to 256 elements so the dimension-level
#: mask control register stays one bit per element (Section III-E).
MAX_MASK_ELEMENTS = 256


@dataclass(frozen=True)
class VectorShape:
    """Shape of a logical multi-dimensional vector register.

    ``lengths`` is ordered from dimension 0 (innermost) upwards.
    """

    lengths: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.lengths) <= MAX_DIMS:
            raise ValueError(f"dimension count must be 1..{MAX_DIMS}, got {len(self.lengths)}")
        if any(length <= 0 for length in self.lengths):
            raise ValueError(f"dimension lengths must be positive, got {self.lengths}")

    @property
    def dim_count(self) -> int:
        return len(self.lengths)

    @property
    def total_elements(self) -> int:
        total = 1
        for length in self.lengths:
            total *= length
        return total

    @property
    def highest_dim_length(self) -> int:
        return self.lengths[-1]

    def flatten_index(self, indices: Sequence[int]) -> int:
        """Map a multi-dimensional logical index onto a SIMD lane number.

        Dimension 0 is the fastest-varying dimension, matching Algorithm 1
        and Figures 3-5 of the paper.
        """
        if len(indices) != self.dim_count:
            raise ValueError(f"expected {self.dim_count} indices, got {len(indices)}")
        lane = 0
        multiplier = 1
        for index, length in zip(indices, self.lengths):
            if not 0 <= index < length:
                raise IndexError(f"index {index} out of range for dimension of length {length}")
            lane += index * multiplier
            multiplier *= length
        return lane

    def unflatten_lane(self, lane: int) -> tuple[int, ...]:
        """Inverse of :meth:`flatten_index`."""
        if not 0 <= lane < self.total_elements:
            raise IndexError(f"lane {lane} out of range for shape {self.lengths}")
        indices = []
        remaining = lane
        for length in self.lengths:
            indices.append(remaining % length)
            remaining //= length
        return tuple(indices)


@dataclass(frozen=True)
class PhysicalRegisterFile:
    """Capacity model of the in-cache physical register file.

    The register file is carved out of the compute half of the L2 cache:
    ``num_arrays`` SRAM arrays, each ``array_rows`` word-lines by
    ``array_cols`` bit-lines.  A physical register of ``element_bits`` wide
    elements occupies ``element_bits`` word-lines in every array, so the
    number of simultaneously-live registers is ``array_rows // element_bits``.
    """

    num_arrays: int = 32
    array_rows: int = 256
    array_cols: int = 256

    @property
    def simd_lanes(self) -> int:
        """Number of bit-serial SIMD lanes (one per bit-line)."""
        return self.num_arrays * self.array_cols

    def register_count(self, element_bits: int) -> int:
        """Number of physical registers available for a given element width."""
        if element_bits <= 0:
            raise ValueError("element width must be positive")
        return self.array_rows // element_bits

    def lanes_per_array(self) -> int:
        return self.array_cols


@dataclass
class ControlRegisters:
    """MVE controller control-register state (Section III-B / V-B).

    The same structure is mirrored by the LSQ address decoder in the scalar
    core so that store address ranges can be computed for memory
    disambiguation (Equation 2).
    """

    dim_count: int = 1
    dim_lengths: list[int] = field(default_factory=lambda: [1, 1, 1, 1])
    load_strides: list[int] = field(default_factory=lambda: [0, 0, 0, 0])
    store_strides: list[int] = field(default_factory=lambda: [0, 0, 0, 0])
    element_bits: int = 32
    #: one mask bit per element of the highest dimension; True = enabled
    dim_mask: list[bool] = field(default_factory=lambda: [True] * MAX_MASK_ELEMENTS)
    #: last :meth:`mask_snapshot`, keyed by the state it was built from
    _snapshot: Optional[tuple[tuple, DimMask]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def set_dim_count(self, count: int) -> None:
        if not 1 <= count <= MAX_DIMS:
            raise ValueError(f"dimension count must be 1..{MAX_DIMS}, got {count}")
        self.dim_count = count

    def set_dim_length(self, dim: int, length: int) -> None:
        if not 0 <= dim < MAX_DIMS:
            raise ValueError(f"dimension index must be 0..{MAX_DIMS - 1}, got {dim}")
        if length <= 0:
            raise ValueError(f"dimension length must be positive, got {length}")
        self.dim_lengths[dim] = length

    def set_load_stride(self, dim: int, stride: int) -> None:
        self._check_dim(dim)
        self.load_strides[dim] = stride

    def set_store_stride(self, dim: int, stride: int) -> None:
        self._check_dim(dim)
        self.store_strides[dim] = stride

    def set_mask(self, element: int, enabled: bool = True) -> None:
        """(Un)mask one element of the highest dimension."""
        if not 0 <= element < MAX_MASK_ELEMENTS:
            raise ValueError(f"mask element must be 0..{MAX_MASK_ELEMENTS - 1}, got {element}")
        self.dim_mask[element] = enabled

    def reset_mask(self) -> None:
        self.dim_mask = [True] * MAX_MASK_ELEMENTS

    def set_element_bits(self, bits: int) -> None:
        if bits not in (8, 16, 32, 64):
            raise ValueError(f"element width must be 8/16/32/64 bits, got {bits}")
        self.element_bits = bits

    @property
    def shape(self) -> VectorShape:
        return VectorShape(tuple(self.dim_lengths[: self.dim_count]))

    def _mask_groups(self) -> tuple[int, int, int]:
        """``(length, group, groups)``: the highest-dimension length, the
        elements each mask bit covers and the number of mask bits in use."""
        length = self.dim_lengths[self.dim_count - 1]
        if length <= MAX_MASK_ELEMENTS:
            return length, 1, length
        group = (length + MAX_MASK_ELEMENTS - 1) // MAX_MASK_ELEMENTS
        return length, group, (length + group - 1) // group

    def mask_snapshot(self) -> DimMask:
        """The active mask as the packed value a vector instruction records.

        Expands the ``groups`` mask bits in use with numpy; consecutive
        instructions under an unchanged mask share one snapshot object.
        """
        length, group, groups = self._mask_groups()
        key = (length, tuple(self.dim_mask[:groups]))
        if self._snapshot is not None and self._snapshot[0] == key:
            return self._snapshot[1]
        bits = np.asarray(key[1], dtype=bool)
        if group > 1:
            bits = np.repeat(bits, group)[:length]
        mask = DimMask.from_lanes(bits)
        self._snapshot = (key, mask)
        return mask

    def active_mask(self) -> list[bool]:
        """Mask bits for the configured highest dimension.

        The mask control register holds :data:`MAX_MASK_ELEMENTS` bits.  When
        the highest dimension is longer than that, each mask bit covers a
        contiguous group of elements (coarser masking granularity), which is
        how the controller keeps the CR size bounded.
        """
        length, group, groups = self._mask_groups()
        if group == 1:
            return self.dim_mask[:length]
        expanded = np.repeat(np.asarray(self.dim_mask[:groups], dtype=bool), group)
        return expanded[:length].tolist()

    def copy(self) -> "ControlRegisters":
        clone = ControlRegisters(
            dim_count=self.dim_count,
            dim_lengths=list(self.dim_lengths),
            load_strides=list(self.load_strides),
            store_strides=list(self.store_strides),
            element_bits=self.element_bits,
            dim_mask=list(self.dim_mask),
        )
        return clone

    @staticmethod
    def _check_dim(dim: int) -> None:
        if not 0 <= dim < MAX_DIMS:
            raise ValueError(f"dimension index must be 0..{MAX_DIMS - 1}, got {dim}")
