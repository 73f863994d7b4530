"""Unit tests for the MVE ISA layer: data types, stride encoding, registers,
instructions."""

import numpy as np
import pytest

from repro.isa import (
    ArithmeticInstruction,
    ConfigInstruction,
    ControlRegisters,
    DataType,
    DimMask,
    InstructionCategory,
    MemoryInstruction,
    MoveInstruction,
    Opcode,
    PhysicalRegisterFile,
    ScalarBlock,
    StrideMode,
    VectorShape,
    parse_suffix,
    resolve_strides,
    MAX_MASK_ELEMENTS,
)


class TestDataTypes:
    def test_all_types_have_consistent_width(self):
        for dtype in DataType:
            assert dtype.bits == dtype.numpy_dtype.itemsize * 8
            assert dtype.bytes * 8 == dtype.bits

    @pytest.mark.parametrize(
        "suffix,expected",
        [("b", DataType.INT8), ("w", DataType.INT16), ("dw", DataType.INT32),
         ("qw", DataType.INT64), ("hf", DataType.FLOAT16), ("f", DataType.FLOAT32)],
    )
    def test_parse_suffix(self, suffix, expected):
        assert parse_suffix(suffix) is expected

    def test_parse_unknown_suffix_raises(self):
        with pytest.raises(ValueError):
            parse_suffix("xx")

    def test_float_types_flagged(self):
        assert DataType.FLOAT32.is_float
        assert DataType.FLOAT16.is_float
        assert not DataType.INT32.is_float

    def test_signedness(self):
        assert DataType.INT8.is_signed
        assert not DataType.UINT8.is_signed

    def test_six_primary_types_of_the_paper(self):
        suffixes = {"b", "w", "dw", "qw", "hf", "f"}
        assert suffixes <= {d.suffix for d in DataType}


class TestStrideModes:
    def test_mode_zero_is_replication(self):
        assert resolve_strides([0], [4], [0]) == [0]

    def test_mode_one_is_sequential(self):
        assert resolve_strides([1], [4], [0]) == [1]

    def test_mode_two_multiplies_lower_dimension(self):
        strides = resolve_strides([1, 2], [8, 4], [0, 0])
        assert strides == [1, 8]

    def test_mode_two_chains_across_dimensions(self):
        strides = resolve_strides([1, 2, 2], [8, 4, 2], [0, 0, 0])
        assert strides == [1, 8, 32]

    def test_mode_two_on_innermost_degenerates_to_one(self):
        assert resolve_strides([2], [8], [0]) == [1]

    def test_mode_three_uses_stride_register(self):
        strides = resolve_strides([1, 3], [8, 4], [0, 640])
        assert strides == [1, 640]

    def test_too_many_dimensions_rejected(self):
        with pytest.raises(ValueError):
            resolve_strides([1] * 5, [2] * 5, [0] * 5)

    def test_stride_mode_enum_values(self):
        assert int(StrideMode.ZERO) == 0
        assert int(StrideMode.ONE) == 1
        assert int(StrideMode.SEQUENTIAL) == 2
        assert int(StrideMode.REGISTER) == 3


class TestVectorShape:
    def test_total_elements(self):
        assert VectorShape((3, 2, 4)).total_elements == 24

    def test_flatten_dim0_fastest(self):
        shape = VectorShape((3, 2))
        assert shape.flatten_index((0, 0)) == 0
        assert shape.flatten_index((1, 0)) == 1
        assert shape.flatten_index((0, 1)) == 3
        assert shape.flatten_index((2, 1)) == 5

    def test_unflatten_is_inverse(self):
        shape = VectorShape((3, 2, 4))
        for lane in range(shape.total_elements):
            assert shape.flatten_index(shape.unflatten_lane(lane)) == lane

    def test_out_of_range_index_rejected(self):
        with pytest.raises(IndexError):
            VectorShape((3, 2)).flatten_index((3, 0))

    def test_bad_dimension_count_rejected(self):
        with pytest.raises(ValueError):
            VectorShape(())
        with pytest.raises(ValueError):
            VectorShape((1, 1, 1, 1, 1))

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValueError):
            VectorShape((0, 4))


class TestPhysicalRegisterFile:
    def test_default_engine_has_8192_lanes(self):
        assert PhysicalRegisterFile().simd_lanes == 8192

    @pytest.mark.parametrize("bits,expected", [(8, 32), (16, 16), (32, 8), (64, 4)])
    def test_register_count_depends_on_width(self, bits, expected):
        assert PhysicalRegisterFile().register_count(bits) == expected

    def test_register_count_rejects_zero_width(self):
        with pytest.raises(ValueError):
            PhysicalRegisterFile().register_count(0)


class TestControlRegisters:
    def test_defaults(self):
        cr = ControlRegisters()
        assert cr.dim_count == 1
        assert cr.shape.total_elements == 1

    def test_set_dimensions(self):
        cr = ControlRegisters()
        cr.set_dim_count(3)
        cr.set_dim_length(0, 8)
        cr.set_dim_length(1, 4)
        cr.set_dim_length(2, 2)
        assert cr.shape.lengths == (8, 4, 2)

    def test_dim_count_bounds(self):
        cr = ControlRegisters()
        with pytest.raises(ValueError):
            cr.set_dim_count(0)
        with pytest.raises(ValueError):
            cr.set_dim_count(5)

    def test_mask_defaults_enabled(self):
        cr = ControlRegisters()
        cr.set_dim_count(2)
        cr.set_dim_length(1, 4)
        assert cr.active_mask() == [True] * 4

    def test_mask_set_and_reset(self):
        cr = ControlRegisters()
        cr.set_dim_count(2)
        cr.set_dim_length(1, 4)
        cr.set_mask(1, False)
        assert cr.active_mask() == [True, False, True, True]
        cr.reset_mask()
        assert cr.active_mask() == [True] * 4

    def test_mask_coarsens_beyond_256_elements(self):
        cr = ControlRegisters()
        cr.set_dim_count(1)
        cr.set_dim_length(0, 512)
        cr.set_mask(0, False)
        mask = cr.active_mask()
        assert len(mask) == 512
        # the first mask bit covers a group of two elements
        assert mask[0] is False and mask[1] is False and mask[2] is True

    def test_element_width_validation(self):
        cr = ControlRegisters()
        cr.set_element_bits(16)
        assert cr.element_bits == 16
        with pytest.raises(ValueError):
            cr.set_element_bits(12)

    def test_copy_is_independent(self):
        cr = ControlRegisters()
        clone = cr.copy()
        clone.set_dim_length(0, 77)
        assert cr.dim_lengths[0] != 77

    def test_max_mask_elements_constant(self):
        assert MAX_MASK_ELEMENTS == 256


class TestInstructions:
    def test_categories(self):
        assert ConfigInstruction(Opcode.SET_DIM_COUNT).category is InstructionCategory.CONFIG
        assert MoveInstruction(Opcode.COPY).category is InstructionCategory.MOVE
        assert MemoryInstruction(Opcode.STRIDED_LOAD).category is InstructionCategory.MEMORY
        assert ArithmeticInstruction(Opcode.ADD).category is InstructionCategory.ARITHMETIC

    def test_memory_instruction_active_elements_with_mask(self):
        instr = MemoryInstruction(
            Opcode.STRIDED_LOAD,
            shape_lengths=(4, 3),
            mask=DimMask.from_lanes((True, False, True)),
        )
        assert instr.total_elements == 12
        assert instr.active_elements() == 8

    def test_memory_instruction_unmasked(self):
        instr = MemoryInstruction(Opcode.STRIDED_LOAD, shape_lengths=(4, 3))
        assert instr.active_elements() == 12

    def test_scalar_block_validation(self):
        with pytest.raises(ValueError):
            ScalarBlock(count=-1)
        with pytest.raises(ValueError):
            ScalarBlock(count=2, loads=2, stores=1)

    def test_assembly_strings(self):
        instr = MemoryInstruction(
            Opcode.STRIDED_LOAD, dtype=DataType.INT32, register=3,
            base_address=0x1000, stride_modes=(1, 2),
        )
        text = instr.assembly()
        assert "vsld_dw" in text and "0x1000" in text

    def test_vector_memory_flag(self):
        assert MemoryInstruction(Opcode.RANDOM_STORE).is_vector_memory
        assert not ArithmeticInstruction(Opcode.ADD).is_vector_memory
