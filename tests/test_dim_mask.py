"""Differential tests for packed dimension masks.

Hypothesis generates control-register programs -- dimension counts,
highest-dimension lengths on both sides of the 256-bit mask register
(including lengths whose last mask group is partial) and arbitrary
set/unset mask bits.  ``ControlRegisters.active_mask()``, the plain
list-of-bools reading of the mask register, is the oracle for every layer
that consumes the packed :class:`DimMask` snapshot:

* the snapshot itself (``lanes()`` and the popcount),
* address generation (``element_addresses``),
* the controller's lane/CB placement,

and the same generated instructions must survive the trace codec and the
shared-memory arena unchanged.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.trace_arena as ta
from repro.core import MVEControllerModel, default_config, element_addresses
from repro.isa import (
    MAX_MASK_ELEMENTS,
    ArithmeticInstruction,
    ConfigInstruction,
    ControlRegisters,
    DataType,
    DimMask,
    MemoryInstruction,
    Opcode,
    ScalarBlock,
)
from repro.isa.trace_io import decode_trace, encode_trace
from repro.sram import get_scheme
from repro.sram.schemes import SCHEME_NAMES

#: elements per generated vector, kept small so the oracles stay cheap
MAX_TOTAL = 4096

highest_lengths = st.one_of(
    st.integers(1, MAX_MASK_ELEMENTS),
    st.integers(MAX_MASK_ELEMENTS + 1, MAX_TOTAL),
    # exact multiples of the group size, and one element past them (a
    # partial last group)
    st.sampled_from((255, 256, 257, 511, 512, 513, 767, 769, 1023, 1025, 4095, 4096)),
)


@st.composite
def cr_programs(draw):
    """A ControlRegisters state reached through set/unset/reset writes."""
    cr = ControlRegisters()
    dim_count = draw(st.integers(1, 4))
    highest = draw(highest_lengths)
    cr.set_dim_count(dim_count)
    budget = MAX_TOTAL // highest
    for dim in range(dim_count - 1):
        length = draw(st.integers(1, max(1, min(4, budget))))
        budget = max(1, budget // length)
        cr.set_dim_length(dim, length)
    cr.set_dim_length(dim_count - 1, highest)
    writes = draw(
        st.lists(
            st.one_of(
                st.tuples(st.integers(0, MAX_MASK_ELEMENTS - 1), st.booleans()),
                st.just(None),
            ),
            max_size=40,
        )
    )
    for write in writes:
        if write is None:
            cr.reset_mask()
        else:
            cr.set_mask(*write)
    return cr


@st.composite
def masked_memory_instructions(draw):
    cr = draw(cr_programs())
    lengths = cr.shape.lengths
    is_random = draw(st.booleans())
    strides = tuple(draw(st.integers(0, 64)) for _ in lengths)
    random_bases = (
        tuple(draw(st.lists(st.integers(0, 1 << 20), min_size=lengths[-1], max_size=lengths[-1])))
        if is_random
        else ()
    )
    is_store = draw(st.booleans())
    opcode = {
        (False, False): Opcode.STRIDED_LOAD,
        (False, True): Opcode.RANDOM_LOAD,
        (True, False): Opcode.STRIDED_STORE,
        (True, True): Opcode.RANDOM_STORE,
    }[(is_store, is_random)]
    instruction = MemoryInstruction(
        opcode,
        dtype=draw(st.sampled_from(list(DataType))),
        register=draw(st.integers(0, 64)),
        base_address=draw(st.integers(0, 1 << 30)),
        stride_modes=tuple(1 for _ in lengths),
        is_store=is_store,
        is_random=is_random,
        random_bases=random_bases,
        resolved_strides=strides,
        shape_lengths=lengths,
        mask=cr.mask_snapshot(),
    )
    return cr, instruction


def oracle_lanes(cr: ControlRegisters) -> np.ndarray:
    return np.asarray(cr.active_mask(), dtype=bool)


def oracle_addresses(cr: ControlRegisters, instruction: MemoryInstruction) -> np.ndarray:
    """Element addresses from the unraveled logical index of every lane,
    kept where the oracle mask enables the lane's highest-dimension index."""
    lengths = instruction.shape_lengths
    total = int(np.prod(lengths))
    # lane order: dimension 0 varies fastest
    indices = np.unravel_index(np.arange(total), lengths[::-1])[::-1]
    element_bytes = instruction.dtype.bytes
    addresses = np.zeros(total, dtype=np.int64)
    for dim, index in enumerate(indices):
        if instruction.is_random and dim == len(lengths) - 1:
            addresses += np.asarray(instruction.random_bases, dtype=np.int64)[index]
        else:
            addresses += index * instruction.resolved_strides[dim] * element_bytes
    if not instruction.is_random:
        addresses += instruction.base_address
    return addresses[oracle_lanes(cr)[indices[-1]]]


def inner_elements(lengths) -> int:
    return int(np.prod(lengths[:-1], dtype=np.int64))


_spec_ids = itertools.count()

DIFFERENTIAL = settings(max_examples=60, deadline=None, derandomize=True)


class TestDimMaskAgainstActiveMask:
    @DIFFERENTIAL
    @given(cr_programs())
    def test_snapshot_lanes_and_popcount(self, cr):
        expected = oracle_lanes(cr)
        mask = cr.mask_snapshot()
        assert len(mask) == expected.size == cr.shape.highest_dim_length
        np.testing.assert_array_equal(mask.lanes(), expected)
        assert mask.count == int(expected.sum())
        assert mask.all_set == bool(expected.all())
        assert mask == DimMask.from_lanes(expected)
        assert hash(mask) == hash(DimMask.from_lanes(expected))

    @DIFFERENTIAL
    @given(masked_memory_instructions())
    def test_element_addresses(self, case):
        cr, instruction = case
        np.testing.assert_array_equal(
            element_addresses(instruction), oracle_addresses(cr, instruction)
        )
        assert instruction.active_elements() == (
            inner_elements(instruction.shape_lengths) * int(oracle_lanes(cr).sum())
        )

    @DIFFERENTIAL
    @given(masked_memory_instructions(), st.sampled_from(SCHEME_NAMES))
    def test_controller_placement(self, case, scheme):
        cr, memory = case
        config = default_config()
        controller = MVEControllerModel(config.engine, get_scheme(scheme))
        active = inner_elements(memory.shape_lengths) * int(oracle_lanes(cr).sum())
        arithmetic = ArithmeticInstruction(
            Opcode.ADD, dtype=memory.dtype, shape_lengths=memory.shape_lengths,
            mask=memory.mask,
        )
        # placement depends on the active element count alone
        unmasked = ArithmeticInstruction(Opcode.ADD, shape_lengths=(active,))
        bits = memory.dtype.bits
        for instruction in (memory, arithmetic):
            placement = controller.placement(instruction, bits)
            assert placement.active_elements == active
            assert placement == controller.placement(unmasked, bits)

    @DIFFERENTIAL
    @given(st.lists(masked_memory_instructions(), min_size=1, max_size=4))
    def test_codec_and_arena_round_trips(self, cases):
        trace = [ConfigInstruction(Opcode.SET_DIM_COUNT, operand_a=1)]
        for _, memory in cases:
            trace.append(ScalarBlock(count=3, loads=1, note="addr"))
            trace.append(memory)
            trace.append(
                ArithmeticInstruction(
                    Opcode.MAC, dtype=memory.dtype, dest=memory.register + 1,
                    sources=(memory.register, -1), immediate=None,
                    shape_lengths=memory.shape_lengths, mask=memory.mask,
                )
            )
        trace.append(MemoryInstruction(Opcode.STRIDED_STORE, shape_lengths=(8,), is_spill=True))

        assert decode_trace(encode_trace(trace)) == trace

        arena = ta.TraceArena()
        spec_key = f"dim-mask-{next(_spec_ids)}"
        try:
            handle = arena.publish(spec_key, trace)
            assert handle is not None
            assert ta.attached_trace(handle) == trace
        finally:
            arena.close()
            ta._worker_traces.pop(spec_key, None)
        assert not ta.live_segments()


class TestDimMaskValue:
    def test_empty_mask_enables_everything(self):
        assert not DimMask.EMPTY
        assert DimMask.EMPTY.all_set
        assert DimMask.EMPTY.active_elements((4, 3)) == 12
        assert MemoryInstruction(Opcode.STRIDED_LOAD).mask is DimMask.EMPTY

    def test_value_semantics(self):
        mask = DimMask.from_lanes([True, False, True])
        assert mask == DimMask.from_lanes(np.array([1, 0, 1]))
        assert mask != DimMask.from_lanes([True, True, True])
        assert mask != (True, False, True)
        assert (len(mask), mask.count, mask.bits) == (3, 2, b"\xa0")
        with pytest.raises(AttributeError):
            mask.length = 4

    def test_bits_must_match_length(self):
        with pytest.raises(ValueError):
            DimMask(9, b"\xff")

    def test_snapshots_share_one_object_while_the_mask_is_unchanged(self):
        cr = ControlRegisters()
        cr.set_dim_length(0, 600)
        first = cr.mask_snapshot()
        assert cr.mask_snapshot() is first
        cr.set_mask(3, False)
        second = cr.mask_snapshot()
        assert second is not first and second.count == 600 - 3
        cr.reset_mask()
        assert cr.mask_snapshot() == first
