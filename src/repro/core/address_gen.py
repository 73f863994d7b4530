"""Address generation for multi-dimensional vector memory accesses.

The MVE controller computes one byte address per SIMD lane from the base
address(es), resolved per-dimension strides and the dimension-level mask
(Algorithm 1 and Equation 1).  The timing simulator uses the resulting set
of touched cache lines to drive the cache/DRAM model, and the LSQ address
decoder in the scalar core uses the footprint (Equation 2) for memory
disambiguation.

Footprints never expand every element address.  An access is a set of
*rows* -- one per element of the highest dimension, starting at
``base + j * stride`` (strided) or at the ``j``-th random base (random) --
that all share one row's inner byte offsets.  The dimension mask selects
rows, so it is applied to the row starts before anything is expanded.  The
line footprint then follows from the shift identity, exact for any integer
offset (zero and negative strides included)::

    (b + o) // L == b // L + (b % L + o) // L

so a row starting at ``b`` touches the lines ``b // L + rel(b % L)``, where
``rel(r)`` is the relative line set of the inner offsets shifted by the
residue ``r``.  The relative pattern depends only on the inner offsets (in
line units) and the residue: a strided access's whole footprint is a
function of (shape, strides, element width, mask, ``base % L``), and
:func:`trace_footprints` computes it once per such pattern in a trace.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..isa.instructions import MemoryInstruction

__all__ = [
    "element_addresses",
    "cache_line_addresses",
    "trace_footprints",
    "address_range",
]


def element_addresses(instruction: MemoryInstruction) -> np.ndarray:
    """Byte addresses for all *active* elements of a vector memory access."""
    lengths = instruction.shape_lengths
    if not lengths:
        return np.zeros(0, dtype=np.int64)
    total = instruction.total_elements
    element_bytes = instruction.dtype.bytes
    addresses = np.zeros(total, dtype=np.int64)
    strides = instruction.resolved_strides
    lanes = np.arange(total, dtype=np.int64)
    multiplier = 1
    for dim, length in enumerate(lengths):
        indices = (lanes // multiplier) % length
        if instruction.is_random and dim == len(lengths) - 1:
            bases = np.asarray(instruction.random_bases, dtype=np.int64)
            addresses += bases[indices]
        else:
            stride = strides[dim] if dim < len(strides) else 0
            addresses += indices * (stride * element_bytes)
        multiplier *= length
    if not instruction.is_random:
        addresses += instruction.base_address

    mask = instruction.mask
    if not mask.all_set:
        inner = total // lengths[-1]
        addresses = addresses[mask.lanes()[lanes // inner]]
    return addresses


# --------------------------------------------------------------------- #
#  Row decomposition
# --------------------------------------------------------------------- #

def _inner_strides(instruction: MemoryInstruction) -> tuple[int, ...]:
    """Resolved element strides of the dimensions below the highest one."""
    strides = instruction.resolved_strides
    return tuple(
        strides[dim] if dim < len(strides) else 0
        for dim in range(len(instruction.shape_lengths) - 1)
    )


def _active_rows(instruction: MemoryInstruction) -> np.ndarray:
    """Indices of the highest-dimension rows the mask leaves active."""
    rows = instruction.shape_lengths[-1]
    mask = instruction.mask
    if mask.all_set:
        return np.arange(rows, dtype=np.int64)
    return np.flatnonzero(mask.lanes()[:rows])


def _row_starts(instruction: MemoryInstruction) -> np.ndarray:
    """Start addresses of an access's active highest-dimension rows: the
    strided base plus the row offsets, or the random bases."""
    rows = _active_rows(instruction)
    if instruction.is_random:
        return np.asarray(instruction.random_bases, dtype=np.int64)[rows]
    strides = instruction.resolved_strides
    top = len(instruction.shape_lengths) - 1
    stride = strides[top] if top < len(strides) else 0
    return instruction.base_address + rows * (stride * instruction.dtype.bytes)


class _InnerPattern:
    """One row's inner byte offsets, reduced to line units.

    ``candidates`` are the lines, relative to the line holding the row
    start, that a row can touch for some start residue.  A row starting at
    residue ``r`` touches candidate ``c`` iff some offset in line ``c``
    stays there (``low[c] + r < L``, ``low`` the smallest in-line offset)
    or some offset in line ``c - 1`` carries into it (``high[c] + r >= L``,
    ``high`` the largest in-line offset of line ``c - 1``).  Sentinels
    ``L`` and ``-1`` mark lines with no such offset.
    """

    __slots__ = ("line_bytes", "candidates", "low", "high")

    def __init__(
        self,
        lengths: Sequence[int],
        strides: Sequence[int],
        element_bytes: int,
        line_bytes: int,
    ) -> None:
        offsets = np.zeros(1, dtype=np.int64)
        for length, stride in zip(lengths, strides):
            step = np.arange(length, dtype=np.int64) * (stride * element_bytes)
            offsets = (step[:, None] + offsets[None, :]).ravel()
        offsets = _sorted_unique(offsets)
        lines, within = np.divmod(offsets, line_bytes)
        first = np.ones(lines.size, dtype=bool)
        np.not_equal(lines[1:], lines[:-1], out=first[1:])
        last = np.ones(lines.size, dtype=bool)
        last[:-1] = first[1:]
        touched = lines[first]
        candidates = _sorted_unique(np.concatenate((touched, touched + 1)))
        low = np.full(candidates.size, line_bytes, dtype=np.int64)
        low[np.searchsorted(candidates, touched)] = within[first]
        high = np.full(candidates.size, -1, dtype=np.int64)
        high[np.searchsorted(candidates, touched + 1)] = within[last]
        self.line_bytes = line_bytes
        self.candidates = candidates
        self.low = low
        self.high = high

    def lines(self, starts: np.ndarray) -> np.ndarray:
        """Sorted, unique line indices touched by rows starting at ``starts``."""
        if starts.size == 0 or self.candidates.size == 0:
            return np.zeros(0, dtype=np.int64)
        line_bytes = self.line_bytes
        quotients, residues = np.divmod(starts, line_bytes)
        distinct = _sorted_unique(residues)
        which = np.searchsorted(distinct, residues)
        shifted = distinct[:, None]
        touched = (self.low + shifted < line_bytes) | (self.high + shifted >= line_bytes)
        # one row of relative lines per residue, untouched candidates
        # replaced by a touched one (duplicates vanish in the union)
        first = self.candidates[np.argmax(touched, axis=1)]
        relative = np.where(touched, self.candidates, first[:, None])
        return _sorted_unique((quotients[:, None] + relative[which]).ravel())


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    # not np.unique: its first call imports numpy.ma, about 1 MB of RSS
    values = np.sort(values)
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _inner_pattern(instruction: MemoryInstruction, line_bytes: int) -> _InnerPattern:
    lengths = instruction.shape_lengths
    return _InnerPattern(
        lengths[:-1], _inner_strides(instruction), instruction.dtype.bytes, line_bytes
    )


def cache_line_addresses(instruction: MemoryInstruction, line_bytes: int = 64) -> np.ndarray:
    """Unique cache-line base addresses touched by a vector memory access.

    Returns a sorted, deduplicated int64 array that flows into
    :meth:`~repro.memory.cache.CacheHierarchy.vector_block_access` unchanged
    -- the footprint stays an ndarray from address generation through the
    cache engine, with no Python-list round-trip.  Computed by row
    decomposition (see the module docstring), never by expanding every
    element address.
    """
    if not instruction.shape_lengths:
        return np.zeros(0, dtype=np.int64)
    return _inner_pattern(instruction, line_bytes).lines(_row_starts(instruction)) * line_bytes


def trace_footprints(
    instructions: Sequence[MemoryInstruction], line_bytes: int
) -> list[np.ndarray]:
    """:func:`cache_line_addresses` of every instruction of a trace, computed
    once per distinct access pattern.

    A strided footprint is memoized, with its base's line, under (shape,
    strides, element width, mask, ``base % line_bytes``); every further
    instruction with that pattern is that footprint shifted by whole lines,
    one integer add.  A random access's inner pattern is memoized under
    (inner shape, inner strides, element width), leaving only its rows'
    residues to resolve.  The memo lives for this call only.
    """
    strided: dict[tuple, tuple[np.ndarray, int]] = {}
    inner: dict[tuple, _InnerPattern] = {}
    footprints = []
    for instruction in instructions:
        lengths = instruction.shape_lengths
        if not lengths:
            footprints.append(np.zeros(0, dtype=np.int64))
            continue
        element_bytes = instruction.dtype.bytes
        if instruction.is_random:
            key = (lengths[:-1], _inner_strides(instruction), element_bytes)
            pattern = inner.get(key)
            if pattern is None:
                pattern = inner[key] = _inner_pattern(instruction, line_bytes)
            footprints.append(pattern.lines(_row_starts(instruction)) * line_bytes)
            continue
        line, residue = divmod(instruction.base_address, line_bytes)
        key = (lengths, instruction.resolved_strides, element_bytes, instruction.mask, residue)
        seen = strided.get(key)
        if seen is None:
            footprint = cache_line_addresses(instruction, line_bytes)
            strided[key] = (footprint, line)
        else:
            # the pattern's first footprint, shifted by whole lines
            first, first_line = seen
            footprint = first + (line - first_line) * line_bytes
        footprints.append(footprint)
    return footprints


def address_range(instruction: MemoryInstruction) -> tuple[int, int]:
    """Conservative [low, high) byte range of a vector store (Equation 2).

    The LSQ address decoder computes ``Base + sum(Len_i * Stride_i)`` without
    expanding all element addresses; this mirrors that cheap computation.
    """
    element_bytes = instruction.dtype.bytes
    if instruction.is_random:
        bases = instruction.random_bases or (instruction.base_address,)
        low = min(bases)
        high = max(bases)
    else:
        low = high = instruction.base_address
    span = 0
    for dim, length in enumerate(instruction.shape_lengths):
        if instruction.is_random and dim == len(instruction.shape_lengths) - 1:
            continue
        stride = (
            instruction.resolved_strides[dim]
            if dim < len(instruction.resolved_strides)
            else 0
        )
        span += (length - 1) * stride * element_bytes
    return low, high + span + element_bytes
