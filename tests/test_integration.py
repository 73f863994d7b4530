"""End-to-end integration tests across the whole stack.

These tests exercise the public API the way a downstream user would: write a
kernel against the intrinsic machine, compile it, simulate it on different
engine configurations, and compare against the baseline models.
"""

import numpy as np
import pytest

from repro import DataType, FlatMemory, MVEMachine, default_config, simulate_kernel
from repro.baselines import KernelProfile, NeonModel
from repro.compiler import compile_trace
from repro.sram import get_scheme
from repro.workloads import create_kernel


class TestEndToEndCustomKernel:
    """A user-defined saxpy-like kernel through the full tool flow."""

    N = 4096

    def build(self):
        memory = FlatMemory()
        machine = MVEMachine(memory)
        x = memory.allocate_array(np.linspace(0, 1, self.N, dtype=np.float32), DataType.FLOAT32)
        y = memory.allocate_array(np.linspace(1, 2, self.N, dtype=np.float32), DataType.FLOAT32)
        out = memory.allocate(DataType.FLOAT32, self.N)
        machine.vsetdimc(1)
        machine.vsetdiml(0, self.N)
        machine.scalar(10)
        vx = machine.vsld(DataType.FLOAT32, x.address, (1,))
        vy = machine.vsld(DataType.FLOAT32, y.address, (1,))
        alpha = machine.vsetdup(DataType.FLOAT32, 2.0)
        machine.vsst(machine.vadd(machine.vmul(vx, alpha), vy), out.address, (1,))
        return machine, x, y, out

    def test_functional_result_correct(self):
        machine, x, y, out = self.build()
        expected = 2.0 * x.read() + y.read()
        np.testing.assert_allclose(out.read(), expected, rtol=1e-6)

    def test_compile_then_simulate(self):
        machine, *_ = self.build()
        compiled = compile_trace(machine.trace)
        result, _ = simulate_kernel(compiled.trace, compile_first=False)
        assert result.total_cycles > 0
        assert result.vector_instructions["memory"] == 3
        assert result.time_ms > 0 and result.energy_nj > 0

    def test_all_schemes_run_the_same_trace(self):
        machine, *_ = self.build()
        cycles = {}
        for scheme in ("bs", "bh", "bp", "ac"):
            result, _ = simulate_kernel(machine.trace, scheme=get_scheme(scheme))
            cycles[scheme] = result.compute_cycles
        # bit-parallel trades lanes for latency; associative is slowest on mul
        assert cycles["ac"] > cycles["bs"]
        assert cycles["bp"] > 0 and cycles["bh"] > 0


class TestEndToEndWorkloads:
    def test_workload_through_simulator_and_neon(self):
        kernel = create_kernel("skia_srcover", scale=0.1)
        trace = kernel.trace_mve()
        mve, compiled = simulate_kernel(trace)
        neon = NeonModel().run(kernel.profile())
        assert kernel.validate()
        assert mve.total_cycles > 0 and neon.total_cycles > 0
        assert compiled.element_bits == 32

    def test_scaling_arrays_scales_speed(self):
        # Large enough that the 8-array engine needs several tiles.
        kernel = create_kernel("fir_l", scale=1.0)
        config8 = default_config().with_arrays(8)
        config64 = default_config().with_arrays(64)
        small, _ = simulate_kernel(kernel.trace_mve(simd_lanes=config8.simd_lanes), config8)
        large, _ = simulate_kernel(kernel.trace_mve(simd_lanes=config64.simd_lanes), config64)
        assert large.total_cycles < small.total_cycles

    def test_low_precision_kernels_gain_more_than_fp32(self):
        """The Figure 12(c) trend holds across real suite kernels."""
        neon = NeonModel()
        int8_kernel = create_kernel("xor_stream", scale=0.25)
        fp32_kernel = create_kernel("audio_gain", scale=0.25)
        int8_kernel.setup()
        fp32_kernel.setup()
        int8_speedup = (
            neon.run(int8_kernel.profile()).time_ms
            / simulate_kernel(int8_kernel.trace_mve())[0].time_ms
        )
        fp32_speedup = (
            neon.run(fp32_kernel.profile()).time_ms
            / simulate_kernel(fp32_kernel.trace_mve())[0].time_ms
        )
        assert int8_speedup > fp32_speedup

    def test_dimension_level_masking_reduces_active_elements(self):
        kernel = create_kernel("csum", scale=0.1)
        trace = kernel.trace_mve()
        from repro.isa import MemoryInstruction

        masked_stores = [
            e
            for e in trace
            if isinstance(e, MemoryInstruction) and e.mask and not all(e.mask.lanes())
        ]
        assert masked_stores, "the reduction pattern should use dimension-level masks"
        for store in masked_stores:
            assert store.active_elements() < store.total_elements

    def test_spill_free_suite_at_default_width(self):
        """Representative kernels fit the physical register file without spills."""
        for name in ("gemm", "intra", "skia_srcover"):
            kernel = create_kernel(name, scale=0.1)
            _, compiled = simulate_kernel(kernel.trace_mve())
            assert compiled.spill_count == 0, f"{name} unexpectedly spilled"


class TestReproducibility:
    def test_same_seed_same_cycles(self):
        a = simulate_kernel(create_kernel("gemm", scale=0.1, seed=3).trace_mve())[0]
        b = simulate_kernel(create_kernel("gemm", scale=0.1, seed=3).trace_mve())[0]
        assert a.total_cycles == b.total_cycles
        assert a.energy_nj == pytest.approx(b.energy_nj)

    def test_profile_independent_of_trace(self):
        kernel = create_kernel("gemm", scale=0.1)
        kernel.setup()
        p1 = kernel.profile()
        kernel.trace_mve()
        p2 = kernel.profile()
        assert p1.total_ops == p2.total_ops
