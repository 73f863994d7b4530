"""Trace-driven cycle-accounting simulator for the MVE architecture.

This is the reproduction's stand-in for the paper's in-house cycle-accurate
simulator.  It consumes a compiled MVE instruction trace and models:

* the scalar core issuing scalar blocks and MVE instructions in program
  order (ROB-head issue, write-buffer backpressure),
* the MVE controller instruction queue decoupling the core from the engine,
* control blocks executing in-SRAM micro-ops with latencies from the
  configured compute scheme (bit-serial by default),
* vector memory accesses flowing through the L2/LLC/DRAM hierarchy with
  MSHR-limited parallelism, and through the Transpose Memory Unit, and
* the resulting energy, following the classification of Figure 7.

The output is a :class:`~repro.core.results.SimulationResult` whose cycle
breakdown (idle / compute / data access), instruction counts and utilization
metrics feed every experiment of Section VII.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence

import numpy as np

from ..compiler.pipeline import CompiledKernel, compile_trace, compile_trace_cached
from ..isa.instructions import (
    InstructionCategory,
    MemoryInstruction,
    MVEInstruction,
    ScalarBlock,
    TraceEntry,
)
from ..isa.registers import PhysicalRegisterFile
from ..memory.cache import make_hierarchy
from ..sram.schemes import ComputeScheme, get_scheme
from ..sram.tmu import TransposeMemoryUnit
from .address_gen import cache_line_addresses
from .config import MachineConfig, default_config
from .controller import MVEControllerModel
from .energy import EnergyCoefficients, EnergyModel
from .results import SimulationResult
from .scalar_core import ScalarCoreModel

__all__ = [
    "MVESimulator",
    "run_reference",
    "simulate_kernel",
    "simulate_trace",
    "simulate_trace_batch",
]


class MVESimulator:
    """End-to-end timing and energy simulator for one MVE-enabled core."""

    def __init__(
        self,
        config: Optional[MachineConfig] = None,
        scheme: Optional[ComputeScheme] = None,
        energy_coefficients: Optional[EnergyCoefficients] = None,
    ):
        self.config = config or default_config()
        self.scheme = scheme or get_scheme(self.config.scheme_name)
        self.hierarchy = make_hierarchy(
            self.config.hierarchy, l2_compute_ways=self.config.l2_compute_ways
        )
        self.controller = MVEControllerModel(self.config.engine, self.scheme)
        self.tmu = TransposeMemoryUnit(self.config.tmu)
        self.energy_coefficients = energy_coefficients or EnergyCoefficients()
        # Cache-line footprints are pure functions of the (immutable) memory
        # instruction, so they are memoized per instruction object: warm-cache
        # runs replay the same trace and skip the address expansion entirely.
        # The instruction is kept in the value to pin its id() against reuse.
        # Footprints stay ndarrays end-to-end: address generation, the memo
        # and the cache engine's block access all speak int64 arrays.
        self._line_memo: dict[int, tuple[MemoryInstruction, np.ndarray]] = {}

    # ------------------------------------------------------------------ #

    def run(self, trace: Sequence[TraceEntry], reset_state: bool = True) -> SimulationResult:
        """Simulate an already-compiled trace and return the result.

        With ``reset_state=False`` the cache contents from a previous run are
        kept (only statistics are cleared), which models the steady-state,
        warm-cache behaviour of repeatedly-invoked library kernels.
        """
        config = self.config
        scalar_core = ScalarCoreModel(config)
        energy = EnergyModel(self.energy_coefficients, config.frequency_ghz)
        if reset_state:
            self.hierarchy.reset()
        else:
            self.hierarchy.reset_stats()
        self.tmu.reset()

        core_time = 0.0
        engine_free = 0.0
        idle = 0.0
        compute = 0.0
        data_access = 0.0

        queue: deque[float] = deque()
        queue_capacity = config.instruction_queue_entries
        dispatch = config.controller_dispatch_cycles

        vector_counts: dict[str, int] = {c.value: 0 for c in InstructionCategory}
        spills = 0
        scalar_instructions = 0

        lane_util_weight = 0.0
        cb_util_weight = 0.0
        util_weight_total = 0.0

        dram_bytes_start = self.hierarchy.dram.stats.bytes_transferred

        for entry in trace:
            if isinstance(entry, ScalarBlock):
                core_time += scalar_core.scalar_block_cycles(entry)
                scalar_instructions += entry.count
                energy.add_scalar(entry.count)
                energy.add_l1_accesses(entry.loads + entry.stores)
                continue

            instruction: MVEInstruction = entry
            category = instruction.category
            vector_counts[category.value] += 1
            if isinstance(instruction, MemoryInstruction) and instruction.is_spill:
                spills += 1

            # The core decodes/commits and issues the instruction.
            core_time += scalar_core.vector_issue_cycles()
            energy.add_scalar(1)
            energy.add_controller(1)

            # Instruction-queue backpressure.
            while queue and queue[0] <= core_time:
                queue.popleft()
            if len(queue) >= queue_capacity:
                core_time = max(core_time, queue.popleft())

            if category is InstructionCategory.CONFIG:
                # Config instructions update controller CRs; they do not
                # occupy the SRAM arrays.
                queue.append(core_time + dispatch)
                continue

            issue_time = core_time + dispatch
            start = max(issue_time, engine_free)
            if start > engine_free:
                idle += start - engine_free

            element_bits = instruction.dtype.bits
            placement = self.controller.placement(instruction, element_bits)

            if category is InstructionCategory.MEMORY:
                duration = self._memory_duration(instruction, placement, energy)
                data_access += duration
            else:
                sram_cycles = self.controller.compute_sram_cycles(
                    instruction, element_bits, config.float_latency_factor, placement
                )
                duration = sram_cycles * config.sram_cycle_multiplier + dispatch
                compute += duration
                energy.add_sram_compute(
                    sram_cycles,
                    placement.active_lanes,
                    self.scheme.energy_per_cycle_factor,
                )

            engine_free = start + duration
            queue.append(engine_free)

            lane_util_weight += placement.lane_utilization * duration
            cb_util_weight += placement.cb_utilization * duration
            util_weight_total += duration

            if isinstance(instruction, MemoryInstruction) and instruction.is_store:
                scalar_core.write_buffer.push(instruction, engine_free, core_time)

        total_cycles = max(core_time, engine_free)
        # Any time the control blocks are not computing or moving data is
        # idle time (waiting for the core to issue work), matching the
        # paper's classification.
        idle = max(idle, total_cycles - compute - data_access)
        energy.add_static(total_cycles)

        l2_stats = self.hierarchy.l2.stats
        result = SimulationResult(
            total_cycles=total_cycles,
            idle_cycles=idle,
            compute_cycles=compute,
            data_access_cycles=data_access,
            scalar_instructions=scalar_instructions,
            vector_instructions=vector_counts,
            spill_instructions=spills,
            lane_utilization=(lane_util_weight / util_weight_total) if util_weight_total else 0.0,
            cb_utilization=(cb_util_weight / util_weight_total) if util_weight_total else 0.0,
            energy=energy.breakdown,
            frequency_ghz=config.frequency_ghz,
            dram_bytes=self.hierarchy.dram.stats.bytes_transferred - dram_bytes_start,
            l2_hit_rate=l2_stats.hit_rate(),
        )
        return result

    # ------------------------------------------------------------------ #

    def _memory_duration(self, instruction: MemoryInstruction, placement, energy: EnergyModel) -> float:
        """Cycles for one vector load/store through the cache, TMU and arrays."""
        config = self.config
        hierarchy = self.hierarchy

        l2_before = hierarchy.l2.stats.hits
        llc_before = hierarchy.llc.stats.hits
        dram_before = hierarchy.dram.stats.reads + hierarchy.dram.stats.writes

        memo = self._line_memo.get(id(instruction))
        if memo is None or memo[0] is not instruction:
            lines = cache_line_addresses(instruction, hierarchy.line_bytes)
            self._line_memo[id(instruction)] = (instruction, lines)
        else:
            lines = memo[1]
        cache_cycles = hierarchy.vector_block_access(lines, instruction.is_store)

        l2_hits = hierarchy.l2.stats.hits - l2_before
        llc_hits = hierarchy.llc.stats.hits - llc_before
        dram_accesses = hierarchy.dram.stats.reads + hierarchy.dram.stats.writes - dram_before
        energy.add_cache_lines(l2_hits, llc_hits, dram_accesses)

        active_elements = instruction.active_elements()
        active_cbs = max(1, placement.active_control_blocks)
        elements_per_cb = (active_elements + active_cbs - 1) // active_cbs
        if instruction.is_store:
            tmu_cycles = self.tmu.drain_cycles(elements_per_cb, instruction.dtype.bits)
        else:
            tmu_cycles = self.tmu.fill_cycles(elements_per_cb, instruction.dtype.bits)
        energy.add_tmu(active_elements)

        sram_row_cycles = (
            self.controller.memory_row_cycles(instruction) * config.sram_cycle_multiplier
        )
        # Cache fetches and TMU routing overlap; the array write of the
        # transposed bit-slices follows.
        return max(cache_cycles, tmu_cycles) + sram_row_cycles + config.controller_dispatch_cycles


def run_reference(
    trace: Sequence[TraceEntry],
    config: MachineConfig,
    scheme: Optional[ComputeScheme] = None,
    warm_cache: bool = True,
) -> SimulationResult:
    """Replay an already-compiled trace on a fresh :class:`MVESimulator`.

    The per-config reference the decomposed replay of :mod:`.replay` is
    tested against; production replay reaches it only through the
    ``REPRO_BATCHED_REPLAY=0`` / ``REPRO_SCALAR_CACHE=1`` switches.
    ``warm_cache=True`` runs the trace twice and reports the second,
    steady-state run.
    """
    simulator = MVESimulator(config=config, scheme=scheme)
    if warm_cache:
        simulator.run(trace)
        return simulator.run(trace, reset_state=False)
    return simulator.run(trace)


def simulate_kernel(
    trace: Sequence[TraceEntry],
    config: Optional[MachineConfig] = None,
    scheme: Optional[ComputeScheme] = None,
    compile_first: bool = True,
    warm_cache: bool = True,
) -> tuple[SimulationResult, Optional[CompiledKernel]]:
    """Compile a raw trace (scheduler + register allocation) and simulate it.

    ``warm_cache=True`` runs the trace twice and reports the second,
    steady-state run -- the equivalent of the paper's repeated kernel
    invocations on the phone, where inputs already live in the cache
    hierarchy.  The compile is uncached (the trace is usually a one-off);
    the replay is the decomposed one of :func:`replay_compiled`.
    """
    config = config or default_config()
    compiled = None
    if compile_first:
        register_file = PhysicalRegisterFile(
            num_arrays=config.engine.num_arrays,
            array_rows=config.engine.array.rows,
            array_cols=config.engine.array.cols,
        )
        compiled = compile_trace(trace, register_file=register_file)
        trace = compiled.trace
    return replay_compiled(trace, config, scheme, warm_cache), compiled


def simulate_trace(
    trace: Sequence[TraceEntry],
    config: Optional[MachineConfig] = None,
    scheme: Optional[ComputeScheme] = None,
    warm_cache: bool = True,
) -> tuple[SimulationResult, CompiledKernel]:
    """Replay a shared, already-captured trace under one configuration.

    The staged pipeline's second phase: the trace comes from the capture
    stage (or the trace cache) and may be replayed many times, so the
    compile step goes through :func:`compile_trace_cached` -- configurations
    that keep the register-file geometry reuse the scheduled,
    register-allocated kernel and only re-run the timing model.  This is
    :func:`simulate_trace_batch` on a batch of one, so the same switches
    apply: ``REPRO_BATCHED_REPLAY=0`` or ``REPRO_SCALAR_CACHE=1`` select
    the per-config reference :func:`run_reference`.  Identical to
    :func:`simulate_kernel` with ``compile_first=True`` result-wise.
    """
    config = config or default_config()
    return simulate_trace_batch(trace, [config], [scheme], warm_cache)[0]


# The decomposed replay lives in .replay (it shares this module's timing
# semantics but none of its per-config state); importing it here keeps
# `from repro.core.simulator import simulate_trace_batch` the canonical
# spelling.  The import sits below the definitions it depends on because
# replay's reference path calls back into run_reference.
from .replay import replay_compiled, simulate_trace_batch  # noqa: E402  (intentional tail import)
