"""Unit tests for the functional MVE machine (intrinsics + trace recording)."""

import numpy as np
import pytest

from repro.intrinsics import MDV, MVEMachine
from repro.isa import (
    DataType,
    DimMask,
    InstructionCategory,
    MemoryInstruction,
    Opcode,
    ScalarBlock,
    StrideMode,
    VectorShape,
)
from repro.memory import FlatMemory


@pytest.fixture
def machine():
    return MVEMachine(FlatMemory())


def alloc(machine, values, dtype=DataType.INT32):
    return machine.memory.allocate_array(np.asarray(values), dtype)


class TestConfig:
    def test_config_instructions_recorded(self, machine):
        machine.vsetdimc(2)
        machine.vsetdiml(0, 8)
        machine.vsetdiml(1, 4)
        machine.vsetmask(0)
        machine.vunsetmask(1)
        machine.vsetwidth(16)
        machine.vsetldstr(1, 640)
        machine.vsetststr(1, 320)
        stats = machine.stats()
        assert stats.config == 8
        assert machine.cr.shape.lengths == (8, 4)
        assert machine.cr.element_bits == 16
        assert machine.cr.load_strides[1] == 640

    def test_scalar_accounting(self, machine):
        machine.scalar(12, loads=2, stores=1)
        machine.scalar(0)  # no-op
        stats = machine.stats()
        assert stats.scalar == 12
        assert stats.scalar_loads == 2


class TestStridedAccess:
    def test_1d_load_store_roundtrip(self, machine):
        data = alloc(machine, np.arange(16, dtype=np.int32))
        out = machine.memory.allocate(DataType.INT32, 16)
        machine.vsetdimc(1)
        machine.vsetdiml(0, 16)
        value = machine.vsld(DataType.INT32, data.address, (1,))
        machine.vsst(value, out.address, (1,))
        np.testing.assert_array_equal(out.read(), np.arange(16))

    def test_2d_sequential_load(self, machine):
        matrix = np.arange(12, dtype=np.int32).reshape(3, 4)
        data = alloc(machine, matrix.reshape(-1))
        machine.vsetdimc(2)
        machine.vsetdiml(0, 4)
        machine.vsetdiml(1, 3)
        value = machine.vsld(DataType.INT32, data.address, (1, 2))
        # lane order: dim0 (columns) fastest -> row-major flattening
        np.testing.assert_array_equal(value.values, matrix.reshape(-1))

    def test_stride_zero_replicates(self, machine):
        data = alloc(machine, np.array([7, 8, 9], dtype=np.int32))
        machine.vsetdimc(2)
        machine.vsetdiml(0, 4)
        machine.vsetdiml(1, 3)
        value = machine.vsld(DataType.INT32, data.address, (0, 1))
        expected = np.repeat([7, 8, 9], 4)
        np.testing.assert_array_equal(value.values, expected)

    def test_stride_register_mode(self, machine):
        matrix = np.arange(20, dtype=np.int32).reshape(4, 5)
        data = alloc(machine, matrix.reshape(-1))
        machine.vsetdimc(2)
        machine.vsetdiml(0, 4)
        machine.vsetdiml(1, 3)
        machine.vsetldstr(0, 5)
        # dim0 walks down a column (stride 5), dim1 walks across columns
        value = machine.vsld(DataType.INT32, data.address, (3, 1))
        np.testing.assert_array_equal(value.values, matrix[:, :3].T.reshape(-1))

    def test_intrapicture_example_of_figure3(self, machine):
        """The Figure 3 example: 2D memory -> 3D register with replication."""
        data = alloc(machine, np.arange(9, dtype=np.int32))  # rows [0 1 2][3 4 5][6 7 8]
        machine.vsetdimc(3)
        machine.vsetdiml(0, 3)
        machine.vsetdiml(1, 2)
        machine.vsetdiml(2, 3)
        machine.vsetldstr(2, 3)
        value = machine.vsld(DataType.INT32, data.address, (1, 0, 3))
        expected = np.array([0, 1, 2, 0, 1, 2, 3, 4, 5, 3, 4, 5, 6, 7, 8, 6, 7, 8])
        np.testing.assert_array_equal(value.values, expected)

    def test_transpose_via_strided_store(self, machine):
        matrix = np.arange(6, dtype=np.int32).reshape(2, 3)
        src = alloc(machine, matrix.reshape(-1))
        dst = machine.memory.allocate(DataType.INT32, 6)
        machine.vsetdimc(2)
        machine.vsetdiml(0, 2)   # rows of the source
        machine.vsetdiml(1, 3)   # columns of the source
        machine.vsetldstr(0, 3)
        machine.vsetststr(1, 2)
        value = machine.vsld(DataType.INT32, src.address, (3, 1))
        machine.vsst(value, dst.address, (1, 3))
        np.testing.assert_array_equal(dst.read(), matrix.T.reshape(-1))

    def test_shape_larger_than_lanes_rejected(self):
        machine = MVEMachine(FlatMemory(), simd_lanes=64)
        data = machine.memory.allocate(DataType.INT32, 128)
        machine.vsetdimc(1)
        machine.vsetdiml(0, 128)
        with pytest.raises(ValueError):
            machine.vsld(DataType.INT32, data.address, (1,))


class TestRandomAccess:
    def test_random_load_uses_pointer_table(self, machine):
        row0 = alloc(machine, np.array([1, 2], dtype=np.int32))
        row1 = alloc(machine, np.array([3, 4], dtype=np.int32))
        table = machine.memory.allocate_array(
            np.array([row1.address, row0.address], dtype=np.uint64), DataType.UINT64
        )
        machine.vsetdimc(2)
        machine.vsetdiml(0, 2)
        machine.vsetdiml(1, 2)
        value = machine.vrld(DataType.INT32, table.address, (1,))
        np.testing.assert_array_equal(value.values, [3, 4, 1, 2])
        instr = machine.trace[-1]
        assert isinstance(instr, MemoryInstruction) and instr.is_random
        assert instr.random_bases == (row1.address, row0.address)

    def test_random_load_with_replication(self, machine):
        """The h2v2 upsample pattern of Figure 4: replicate pixels twice."""
        row = alloc(machine, np.array([5, 6], dtype=np.int32))
        table = machine.memory.allocate_array(
            np.array([row.address], dtype=np.uint64), DataType.UINT64
        )
        machine.vsetdimc(3)
        machine.vsetdiml(0, 2)  # replication
        machine.vsetdiml(1, 2)  # pixels
        machine.vsetdiml(2, 1)  # rows (random)
        value = machine.vrld(DataType.INT32, table.address, (0, 1))
        np.testing.assert_array_equal(value.values, [5, 5, 6, 6])

    def test_random_store(self, machine):
        out_row = machine.memory.allocate(DataType.INT32, 4)
        table = machine.memory.allocate_array(
            np.array([out_row.address], dtype=np.uint64), DataType.UINT64
        )
        machine.vsetdimc(2)
        machine.vsetdiml(0, 4)
        machine.vsetdiml(1, 1)
        value = machine.vsetdup(DataType.INT32, 9)
        machine.vrst(value, table.address, (1,))
        np.testing.assert_array_equal(out_row.read(), [9, 9, 9, 9])


class TestMasking:
    def test_masked_store_skips_masked_elements(self, machine):
        out = machine.memory.allocate_array(np.zeros(8, dtype=np.int32), DataType.INT32)
        machine.vsetdimc(2)
        machine.vsetdiml(0, 4)
        machine.vsetdiml(1, 2)
        value = machine.vsetdup(DataType.INT32, 5)
        machine.vunsetmask(0)
        machine.vsst(value, out.address, (1, 2))
        np.testing.assert_array_equal(out.read(), [0, 0, 0, 0, 5, 5, 5, 5])

    def test_masked_load_zeroes_masked_lanes(self, machine):
        data = alloc(machine, np.arange(8, dtype=np.int32) + 1)
        machine.vsetdimc(2)
        machine.vsetdiml(0, 4)
        machine.vsetdiml(1, 2)
        machine.vunsetmask(1)
        value = machine.vsld(DataType.INT32, data.address, (1, 2))
        np.testing.assert_array_equal(value.values, [1, 2, 3, 4, 0, 0, 0, 0])

    def test_mask_snapshot_recorded_in_instruction(self, machine):
        data = alloc(machine, np.arange(8, dtype=np.int32))
        machine.vsetdimc(2)
        machine.vsetdiml(0, 4)
        machine.vsetdiml(1, 2)
        machine.vunsetmask(0)
        machine.vsld(DataType.INT32, data.address, (1, 2))
        instr = machine.trace[-1]
        assert instr.mask == DimMask.from_lanes((False, True))
        assert instr.active_elements() == 4

    def test_reset_mask(self, machine):
        machine.vsetdimc(2)
        machine.vsetdiml(1, 4)
        machine.vunsetmask(2)
        machine.vresetmask()
        assert machine.cr.active_mask() == [True] * 4


class TestArithmetic:
    def _vec(self, machine, values, dtype=DataType.INT32):
        data = alloc(machine, np.asarray(values), dtype)
        machine.vsetdimc(1)
        machine.vsetdiml(0, len(values))
        return machine.vsld(dtype, data.address, (1,))

    def test_add_sub_mul(self, machine):
        a = self._vec(machine, [1, 2, 3, 4])
        b = self._vec(machine, [10, 20, 30, 40])
        np.testing.assert_array_equal(machine.vadd(a, b).values, [11, 22, 33, 44])
        np.testing.assert_array_equal(machine.vsub(b, a).values, [9, 18, 27, 36])
        np.testing.assert_array_equal(machine.vmul(a, b).values, [10, 40, 90, 160])

    def test_integer_wraparound(self, machine):
        a = self._vec(machine, [127], DataType.INT8)
        one = machine.vsetdup(DataType.INT8, 1)
        assert machine.vadd(a, one).values[0] == -128

    def test_min_max(self, machine):
        a = self._vec(machine, [1, 5, 3])
        b = self._vec(machine, [4, 2, 3])
        np.testing.assert_array_equal(machine.vmin(a, b).values, [1, 2, 3])
        np.testing.assert_array_equal(machine.vmax(a, b).values, [4, 5, 3])

    def test_logical_ops(self, machine):
        a = self._vec(machine, [0b1100, 0b1010])
        b = self._vec(machine, [0b1010, 0b0110])
        np.testing.assert_array_equal(machine.vand(a, b).values, [0b1000, 0b0010])
        np.testing.assert_array_equal(machine.vor(a, b).values, [0b1110, 0b1110])
        np.testing.assert_array_equal(machine.vxor(a, b).values, [0b0110, 0b1100])
        np.testing.assert_array_equal(machine.vnot(a).values, [~0b1100, ~0b1010])

    def test_shifts_and_rotate(self, machine):
        a = self._vec(machine, [8, 16])
        np.testing.assert_array_equal(machine.vshl_imm(a, 2).values, [32, 64])
        np.testing.assert_array_equal(machine.vshr_imm(a, 2).values, [2, 4])
        rotated = machine.vrot_imm(self._vec(machine, [1], DataType.UINT8), 1)
        assert rotated.values[0] == 2

    def test_shift_by_register(self, machine):
        a = self._vec(machine, [1, 1, 1])
        s = self._vec(machine, [0, 1, 2])
        np.testing.assert_array_equal(machine.vshl_reg(a, s).values, [1, 2, 4])

    def test_comparisons_produce_01(self, machine):
        a = self._vec(machine, [1, 5, 3])
        b = self._vec(machine, [3, 3, 3])
        np.testing.assert_array_equal(machine.vgt(a, b).values, [0, 1, 0])
        np.testing.assert_array_equal(machine.vlte(a, b).values, [1, 0, 1])
        np.testing.assert_array_equal(machine.veq(a, b).values, [0, 0, 1])

    def test_division_guards_zero(self, machine):
        a = self._vec(machine, [10, 9])
        b = self._vec(machine, [2, 0])
        np.testing.assert_array_equal(machine.vdiv(a, b).values, [5, 0])

    def test_float_arithmetic(self, machine):
        a = self._vec(machine, [1.5, 2.5], DataType.FLOAT32)
        b = self._vec(machine, [0.5, 0.25], DataType.FLOAT32)
        np.testing.assert_allclose(machine.vmul(a, b).values, [0.75, 0.625])

    def test_setdup_and_copy_and_convert(self, machine):
        machine.vsetdimc(1)
        machine.vsetdiml(0, 4)
        dup = machine.vsetdup(DataType.INT16, 3)
        assert dup.values.dtype == np.int16
        copy = machine.vcpy(dup)
        np.testing.assert_array_equal(copy.values, dup.values)
        wide = machine.vcvt(dup, DataType.INT32)
        assert wide.dtype is DataType.INT32
        np.testing.assert_array_equal(wide.values, [3, 3, 3, 3])

    def test_operand_conforming_pads_with_zero(self, machine):
        a = self._vec(machine, [1, 2])
        machine.vsetdiml(0, 4)
        b = machine.vsetdup(DataType.INT32, 10)
        result = machine.vadd(a, b)
        np.testing.assert_array_equal(result.values, [11, 12, 10, 10])


class TestTraceBookkeeping:
    def test_register_numbers_increase(self, machine):
        machine.vsetdimc(1)
        machine.vsetdiml(0, 4)
        a = machine.vsetdup(DataType.INT32, 1)
        b = machine.vsetdup(DataType.INT32, 2)
        c = machine.vadd(a, b)
        assert a.register < b.register < c.register

    def test_stats_classification(self, machine):
        data = alloc(machine, np.arange(4, dtype=np.int32))
        machine.vsetdimc(1)
        machine.vsetdiml(0, 4)
        v = machine.vsld(DataType.INT32, data.address, (1,))
        machine.vcpy(v)
        machine.vadd(v, v)
        machine.scalar(5)
        stats = machine.stats()
        assert stats.as_dict() == {
            "config": 2,
            "move": 1,
            "memory": 1,
            "arithmetic": 1,
            "vector_total": 5,
            "scalar": 5,
        }

    def test_reset_trace(self, machine):
        machine.vsetdimc(2)
        machine.reset_trace()
        assert machine.trace == []
        assert machine.cr.dim_count == 1


class TestMDV:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MDV(0, DataType.INT32, VectorShape((4,)), np.zeros(3, dtype=np.int32))

    def test_lane_indexing(self):
        mdv = MDV(0, DataType.INT32, VectorShape((2, 2)), np.array([1, 2, 3, 4]))
        assert mdv.lane(1, 0) == 2
        assert mdv.lane(0, 1) == 3

    def test_as_ndarray_shape(self):
        mdv = MDV(0, DataType.INT32, VectorShape((4, 2)), np.arange(8))
        assert mdv.as_ndarray().shape == (2, 4)
