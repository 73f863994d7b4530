"""Address generation for multi-dimensional vector memory accesses.

The MVE controller computes one byte address per SIMD lane from the base
address(es), resolved per-dimension strides and the dimension-level mask
(Algorithm 1 and Equation 1).  The timing simulator uses the resulting set
of touched cache lines to drive the cache/DRAM model, and the LSQ address
decoder in the scalar core uses the footprint (Equation 2) for memory
disambiguation.
"""

from __future__ import annotations

import numpy as np

from ..isa.instructions import MemoryInstruction

__all__ = ["element_addresses", "cache_line_addresses", "address_range"]


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


def cache_line_addresses(instruction: MemoryInstruction, line_bytes: int = 64) -> np.ndarray:
    """Unique cache-line base addresses touched by a vector memory access.

    Returns a sorted, deduplicated int64 array that flows into
    :meth:`~repro.memory.cache.CacheHierarchy.vector_block_access` unchanged
    -- the footprint stays an ndarray from address generation through the
    cache engine, with no Python-list round-trip.
    """
    addresses = element_addresses(instruction)
    if addresses.size == 0:
        return addresses.astype(np.int64, copy=False)
    lines = np.sort(addresses // line_bytes)
    keep = np.empty(lines.size, dtype=bool)
    keep[0] = True
    np.not_equal(lines[1:], lines[:-1], out=keep[1:])
    return lines[keep] * line_bytes


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
