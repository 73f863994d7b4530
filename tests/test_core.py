"""Unit tests for the core architecture models: address generation, scalar
core, controller, timing simulator, energy and area."""

import numpy as np
import pytest

from repro.core import (
    AddressDecoder,
    AreaModel,
    EnergyCoefficients,
    EnergyModel,
    MachineConfig,
    MVEControllerModel,
    MVESimulator,
    ScalarCoreModel,
    WriteBuffer,
    address_range,
    cache_line_addresses,
    default_config,
    element_addresses,
    simulate_kernel,
)
from repro.intrinsics import MVEMachine
from repro.isa import (
    ArithmeticInstruction,
    DataType,
    DimMask,
    MemoryInstruction,
    Opcode,
    ScalarBlock,
)
from repro.memory import FlatMemory
from repro.sram import BitParallelScheme, BitSerialScheme, get_scheme


def make_memory_instruction(**overrides):
    defaults = dict(
        dtype=DataType.INT32,
        register=0,
        base_address=0x1000,
        stride_modes=(1, 2),
        is_store=False,
        is_random=False,
        resolved_strides=(1, 4),
        shape_lengths=(4, 3),
        mask=DimMask.from_lanes((True, True, True)),
    )
    defaults.update(overrides)
    return MemoryInstruction(Opcode.STRIDED_LOAD, **defaults)


class TestAddressGeneration:
    def test_element_addresses_strided(self):
        instr = make_memory_instruction()
        addresses = element_addresses(instr)
        assert addresses.size == 12
        assert addresses[0] == 0x1000
        assert addresses[1] == 0x1004          # dim0 stride 1 element
        assert addresses[4] == 0x1000 + 16     # dim1 stride 4 elements

    def test_element_addresses_masked(self):
        instr = make_memory_instruction(mask=DimMask.from_lanes((True, False, True)))
        assert element_addresses(instr).size == 8

    def test_element_addresses_random(self):
        instr = make_memory_instruction(
            is_random=True,
            random_bases=(0x9000, 0x5000, 0x7000),
            resolved_strides=(1, 0),
        )
        addresses = element_addresses(instr)
        assert addresses[0] == 0x9000
        assert addresses[4] == 0x5000
        assert addresses[8] == 0x7000

    def test_cache_lines_deduplicated(self):
        instr = make_memory_instruction(shape_lengths=(16,), mask=DimMask.from_lanes((True,) * 16),
                                         stride_modes=(1,), resolved_strides=(1,))
        lines = cache_line_addresses(instr, line_bytes=64)
        assert lines.size == 1

    def test_address_range_covers_all_elements(self):
        instr = make_memory_instruction()
        low, high = address_range(instr)
        addresses = element_addresses(instr)
        assert low <= addresses.min()
        assert high >= addresses.max() + instr.dtype.bytes

    def test_address_range_random(self):
        instr = make_memory_instruction(
            is_random=True, random_bases=(0x5000, 0x9000), shape_lengths=(4, 2),
            mask=DimMask.from_lanes((True, True)), resolved_strides=(1, 0),
        )
        low, high = address_range(instr)
        assert low == 0x5000 and high > 0x9000


class TestScalarCore:
    def test_scalar_block_cycles_scale_with_count(self):
        core = ScalarCoreModel(default_config())
        short = core.scalar_block_cycles(ScalarBlock(10))
        long = core.scalar_block_cycles(ScalarBlock(100))
        assert long > short

    def test_memory_ops_add_latency(self):
        core = ScalarCoreModel(default_config())
        plain = core.scalar_block_cycles(ScalarBlock(10))
        with_loads = core.scalar_block_cycles(ScalarBlock(10, loads=5))
        assert with_loads > plain

    def test_write_buffer_conflict_detection(self):
        buffer = WriteBuffer(entries=4)
        store = make_memory_instruction(is_store=True)
        buffer.push(store, completes_at=100.0, now=0.0)
        low, high = AddressDecoder.store_range(store)
        assert buffer.conflict_delay(low, low + 4, now=10.0) == pytest.approx(90.0)
        assert buffer.conflict_delay(high + 64, high + 128, now=10.0) == 0.0

    def test_write_buffer_backpressure(self):
        buffer = WriteBuffer(entries=1)
        store = make_memory_instruction(is_store=True)
        buffer.push(store, completes_at=50.0, now=0.0)
        resume = buffer.push(store, completes_at=80.0, now=10.0)
        assert resume == pytest.approx(50.0)

    def test_write_buffer_drains(self):
        buffer = WriteBuffer(entries=2)
        store = make_memory_instruction(is_store=True)
        buffer.push(store, completes_at=5.0, now=0.0)
        buffer.drain_completed(now=10.0)
        assert buffer.occupancy == 0


class TestControllerModel:
    def make(self, scheme=None, config=None):
        config = config or default_config()
        return MVEControllerModel(config.engine, scheme or BitSerialScheme())

    def test_placement_full_register(self):
        controller = self.make()
        instr = ArithmeticInstruction(Opcode.ADD, dtype=DataType.INT32,
                                      shape_lengths=(8192,), mask=DimMask.EMPTY)
        placement = controller.placement(instr, 32)
        assert placement.active_elements == 8192
        assert placement.lane_utilization == 1.0
        assert placement.cb_utilization == 1.0
        assert placement.repeats == 1

    def test_placement_partial_register(self):
        controller = self.make()
        instr = ArithmeticInstruction(Opcode.ADD, dtype=DataType.INT32,
                                      shape_lengths=(128,), mask=DimMask.EMPTY)
        placement = controller.placement(instr, 32)
        assert placement.lane_utilization == pytest.approx(128 / 8192)
        assert placement.active_control_blocks == 1

    def test_placement_masked_dimension(self):
        controller = self.make()
        instr = ArithmeticInstruction(Opcode.ADD, dtype=DataType.INT32,
                                      shape_lengths=(64, 4), mask=DimMask.from_lanes((True, False, True, False)))
        placement = controller.placement(instr, 32)
        assert placement.active_elements == 128

    def test_bit_parallel_needs_repeats(self):
        controller = self.make(scheme=BitParallelScheme())
        instr = ArithmeticInstruction(Opcode.ADD, dtype=DataType.INT32,
                                      shape_lengths=(8192,), mask=DimMask.EMPTY)
        placement = controller.placement(instr, 32)
        assert placement.repeats == 32

    def test_compute_cycles_follow_scheme(self):
        controller = self.make()
        add = ArithmeticInstruction(Opcode.ADD, dtype=DataType.INT32,
                                    shape_lengths=(8192,), mask=DimMask.EMPTY)
        mul = ArithmeticInstruction(Opcode.MUL, dtype=DataType.INT32,
                                    shape_lengths=(8192,), mask=DimMask.EMPTY)
        assert controller.compute_sram_cycles(add, 32, 1.5) == 32
        assert controller.compute_sram_cycles(mul, 32, 1.5) == 32 * 32 + 5 * 32

    def test_float_factor_applied(self):
        controller = self.make()
        fadd = ArithmeticInstruction(Opcode.ADD, dtype=DataType.FLOAT32,
                                     shape_lengths=(8192,), mask=DimMask.EMPTY)
        assert controller.compute_sram_cycles(fadd, 32, 2.0) == 64


class TestSimulator:
    def small_trace(self, n=1024, dtype=DataType.INT16):
        memory = FlatMemory()
        machine = MVEMachine(memory)
        a = memory.allocate_array(np.arange(n, dtype=dtype.numpy_dtype), dtype)
        b = memory.allocate_array(np.arange(n, dtype=dtype.numpy_dtype), dtype)
        out = memory.allocate(dtype, n)
        machine.vsetdimc(1)
        machine.vsetdiml(0, n)
        machine.scalar(20, loads=2)
        va = machine.vsld(dtype, a.address, (1,))
        vb = machine.vsld(dtype, b.address, (1,))
        machine.vsst(machine.vadd(va, vb), out.address, (1,))
        return machine.trace

    def test_cycle_breakdown_sums_below_total(self):
        result, _ = simulate_kernel(self.small_trace())
        assert result.total_cycles > 0
        busy = result.compute_cycles + result.data_access_cycles
        assert busy <= result.total_cycles * 1.01

    def test_instruction_counts(self):
        result, compiled = simulate_kernel(self.small_trace())
        assert result.vector_instructions["memory"] == 3
        assert result.vector_instructions["arithmetic"] == 1
        assert result.scalar_instructions == 20
        assert compiled.spill_count == 0

    def test_energy_positive_and_decomposed(self):
        result, _ = simulate_kernel(self.small_trace())
        assert result.energy_nj > 0
        assert result.energy.compute_nj > 0
        assert result.energy.data_access_nj > 0

    def test_more_work_takes_longer(self):
        small, _ = simulate_kernel(self.small_trace(n=512))
        large, _ = simulate_kernel(self.small_trace(n=8192))
        assert large.total_cycles > small.total_cycles

    def test_lower_precision_is_faster(self):
        int8, _ = simulate_kernel(self.small_trace(dtype=DataType.INT8))
        int32, _ = simulate_kernel(self.small_trace(dtype=DataType.INT32))
        assert int8.compute_cycles < int32.compute_cycles

    def test_warm_cache_faster_than_cold(self):
        trace = self.small_trace(n=8192)
        warm, _ = simulate_kernel(trace, warm_cache=True)
        cold, _ = simulate_kernel(trace, warm_cache=False)
        assert warm.data_access_cycles <= cold.data_access_cycles

    def test_scheme_changes_compute_time(self):
        trace = self.small_trace(n=8192, dtype=DataType.INT32)
        bs, _ = simulate_kernel(trace, scheme=get_scheme("bs"))
        ac, _ = simulate_kernel(trace, scheme=get_scheme("ac"))
        assert ac.compute_cycles > bs.compute_cycles

    def test_more_arrays_reduce_repeats(self):
        trace = self.small_trace(n=8192, dtype=DataType.INT32)
        base = default_config()
        small_engine = base.with_arrays(8)
        small, _ = simulate_kernel(trace, config=small_engine)
        large, _ = simulate_kernel(trace, config=base)
        assert large.total_cycles <= small.total_cycles

    def test_utilization_bounds(self):
        result, _ = simulate_kernel(self.small_trace())
        assert 0.0 <= result.lane_utilization <= 1.0
        assert 0.0 <= result.cb_utilization <= 1.0

    def test_time_units(self):
        result, _ = simulate_kernel(self.small_trace())
        assert result.time_ms == pytest.approx(result.time_us / 1000.0)

    def test_merged_results(self):
        a, _ = simulate_kernel(self.small_trace(n=512))
        b, _ = simulate_kernel(self.small_trace(n=1024))
        merged = a.merged_with(b)
        assert merged.total_cycles == pytest.approx(a.total_cycles + b.total_cycles)
        assert merged.energy_nj == pytest.approx(a.energy_nj + b.energy_nj)

    def test_simulator_reuse_with_reset(self):
        simulator = MVESimulator()
        trace = self.small_trace()
        from repro.compiler import compile_trace

        compiled = compile_trace(trace).trace
        first = simulator.run(compiled)
        second = simulator.run(compiled, reset_state=False)
        assert second.data_access_cycles <= first.data_access_cycles


class TestEnergyModel:
    def test_sram_energy_scales_with_lanes(self):
        model = EnergyModel()
        model.add_sram_compute(100, 1000)
        small = model.breakdown.compute_nj
        model.reset()
        model.add_sram_compute(100, 8000)
        assert model.breakdown.compute_nj > small

    def test_dram_dominates_cache(self):
        coefficients = EnergyCoefficients()
        assert coefficients.dram_line_access_pj > coefficients.llc_line_access_pj
        assert coefficients.llc_line_access_pj > coefficients.l2_line_access_pj

    def test_static_energy_scales_with_time(self):
        model = EnergyModel()
        model.add_static(1000)
        short = model.breakdown.static_nj
        model.reset()
        model.add_static(100000)
        assert model.breakdown.static_nj > short

    def test_total_is_sum_of_parts(self):
        model = EnergyModel()
        model.add_scalar(10)
        model.add_tmu(100)
        model.add_controller(5)
        breakdown = model.breakdown
        assert breakdown.total_nj == pytest.approx(
            breakdown.compute_nj + breakdown.data_access_nj + breakdown.cpu_nj
            + breakdown.static_nj
        )


class TestAreaModel:
    def test_table5_overhead_close_to_paper(self):
        report = AreaModel().report()
        assert report.overhead_percent == pytest.approx(3.6, abs=0.2)

    def test_neon_overhead_larger_than_mve(self):
        report = AreaModel().report()
        assert AreaModel.neon_overhead_percent() > report.overhead_percent

    def test_module_breakdown_sums(self):
        report = AreaModel().report()
        assert report.total_mm2 == pytest.approx(sum(report.modules_mm2.values()))
        assert report.module_overhead_percent("fsm") > report.module_overhead_percent("mshr")

    def test_area_scales_with_arrays(self):
        small = AreaModel(num_arrays=16).report()
        large = AreaModel(num_arrays=64).report()
        assert large.total_mm2 > small.total_mm2


class TestMachineConfig:
    def test_defaults_match_table4(self):
        config = default_config()
        assert config.frequency_ghz == 2.8
        assert config.simd_lanes == 8192
        assert config.num_control_blocks == 8
        assert config.hierarchy.l2.size_bytes == 512 * 1024

    def test_with_arrays(self):
        config = default_config().with_arrays(64)
        assert config.simd_lanes == 16384
        assert config.engine.num_arrays == 64

    def test_with_scheme(self):
        config = default_config().with_scheme("bit-parallel")
        assert config.scheme_name == "bit-parallel"
