"""Decomposed trace replay: one pass over a trace, many configs out.

The staged pipeline froze the captured instruction stream, which makes
every timing model a pure function of the machine configuration.  This module
exploits that purity: :func:`simulate_trace_batch` replays one trace for a
whole *axis* of configurations, sharing every piece of work that does not
depend on the axis instead of walking the configs one at a time through
:meth:`~repro.core.simulator.MVESimulator.run`.  One configuration is a
batch of one: :func:`~repro.core.simulator.simulate_trace` delegates here,
and :func:`~repro.core.simulator.simulate_kernel` replays its freshly
compiled trace through :func:`replay_compiled`.

The decomposition leans on five invariants of the timing models:

* **Cache and DRAM state evolution is timing-independent.**  Which lines hit,
  which victims are evicted and which DRAM rows are open depend only on the
  ordered memory footprints and the *structural* parameters (cache geometry,
  channel/bank/row/burst layout) -- never on latencies.  Configs sharing
  those replay one hierarchy; configs differing only in DRAM *timing*
  additionally share the row-buffer classification
  (:meth:`~repro.memory.dram.DRAMModel.classify_batch`) and only re-price it.
* **Memory state is a function of the ordered line stream.**  Replay never
  fills the L1 or sets a presence bit, L2 state never depends on the LLC and
  LLC state never on the DRAM.  So the memory pass resolves each level over
  a chunk of the trace's line stream (warm-up run, then measured run) at
  once -- chunk to the L2, its L2 misses to the LLC, the LLC misses to the
  DRAM classifier -- and reads per-instruction counts and cycles back from
  where each instruction's lines sit in the chunk.
* **Placement and SRAM latencies are stateless.**  Per-instruction lane/CB
  placement, compute latencies and TMU fill/drain cycles are pure functions
  of (scheme, engine geometry, instruction), so one pass per distinct
  compute key covers every config using it.
* **Footprints and placement are functions of the access pattern.**  A
  memory instruction's cache-line footprint depends only on its shape,
  strides, element width, mask and its base's offset within a line (up to
  a shift by whole lines), and its lane/CB placement and SRAM/TMU
  latencies only on its class, opcode, dtype, direction, shape and mask.
  :func:`~repro.core.address_gen.trace_footprints` and the compute pass
  therefore evaluate each distinct pattern once per call and reuse it for
  every instruction sharing it.
* **The core/engine timeline is cheap.**  Given per-entry durations, the
  queue-backpressure recurrence of :meth:`MVESimulator.run` is a small
  scalar loop, so it runs per config without dominating.

Float accumulation order is replicated exactly (energy sums, utilization
weights, the timeline recurrence), so results are **bit-identical** to the
per-config reference.  The ``REPRO_BATCHED_REPLAY=0`` environment switch
pins that: it routes every replay, single-config or batched, through the
per-config :func:`~repro.core.simulator.run_reference`
(:class:`~repro.core.simulator.MVESimulator`), the same way
``REPRO_SCALAR_CACHE=1`` pins the vectorized cache engine to its scalar
reference.  (When the scalar cache reference *is* selected, the decomposed
replay is disabled as well: the scalar path stays the executable
specification, end to end.)

Axes that batch together: compute scheme, SRAM-cycle/float-latency knobs,
cache geometry, ``l2_compute_ways``, DRAM structure and timing, TMU and
queue/dispatch parameters.  Axes that split the batch: anything changing the
captured trace (kernel, scale, SIMD lanes) -- those are different
:class:`~repro.core.traces.TraceSpec` groups already -- and the register-file
geometry (array count/rows/cols), which changes the compiled kernel and its
spill traffic (see :func:`replay_group_key`).
"""

from __future__ import annotations

import os
from collections import deque
from typing import Optional, Sequence

import numpy as np

from ..compiler.pipeline import CompiledKernel, compile_trace_cached
from ..isa.instructions import (
    InstructionCategory,
    MemoryInstruction,
    MVEInstruction,
    ScalarBlock,
    TraceEntry,
)
from ..isa.registers import PhysicalRegisterFile
from ..memory.cache import aggregate_block_cycles, make_hierarchy, use_scalar_cache
from ..memory.dram import DRAMConfig, DRAMModel
from ..sram.schemes import ComputeScheme, get_scheme
from ..sram.tmu import TransposeMemoryUnit
from .address_gen import trace_footprints
from .config import MachineConfig
from .controller import MVEControllerModel
from .energy import EnergyBreakdown, EnergyCoefficients
from .results import SimulationResult

__all__ = [
    "BATCHED_REPLAY_ENV",
    "batched_replay_enabled",
    "replay_compiled",
    "replay_group_key",
    "simulate_trace_batch",
]

#: environment switch disabling the batched engine (``=0`` selects the
#: per-config reference path, mirroring ``REPRO_SCALAR_CACHE``)
BATCHED_REPLAY_ENV = "REPRO_BATCHED_REPLAY"


def batched_replay_enabled() -> bool:
    """True when replays go through the decomposed engine of this module.

    ``REPRO_BATCHED_REPLAY=0`` disables batching explicitly;
    ``REPRO_SCALAR_CACHE=1`` disables it implicitly, because the scalar
    cache reference is meant to be the end-to-end executable specification
    and therefore always runs the per-config reference simulator.
    """
    if os.environ.get(BATCHED_REPLAY_ENV, "") == "0":
        return False
    return not use_scalar_cache()


def replay_group_key(config: MachineConfig) -> tuple[int, int, int]:
    """The compiled-kernel identity of a config: register-file geometry.

    Configs with equal keys replay the same scheduled, register-allocated
    kernel (shared via :func:`compile_trace_cached`) and may therefore share
    one batched replay; configs with different keys see different spill
    traffic and must split.
    """
    engine = config.engine
    return (engine.num_arrays, engine.array.rows, engine.array.cols)


# --------------------------------------------------------------------- #
#  Static trace decomposition (shared by every config of one compiled
#  kernel)
# --------------------------------------------------------------------- #

_OP_SCALAR = 0
_OP_CONFIG = 1
_OP_ENGINE = 2


class _StaticTrace:
    """Per-entry skeleton of one compiled trace, independent of any config."""

    def __init__(self, trace: Sequence[TraceEntry], coefficients: EnergyCoefficients):
        #: (op, index) per entry: scalar blocks index into ``scalar_blocks``,
        #: engine instructions into ``engine_entries``; config instructions
        #: carry no payload
        self.ops: list[tuple[int, int]] = []
        self.scalar_blocks: list[ScalarBlock] = []
        #: non-config MVE instructions in trace order, paired with their
        #: position among memory instructions (-1 for compute)
        self.engine_entries: list[tuple[MVEInstruction, int]] = []
        self.memory_instructions: list[MemoryInstruction] = []

        vector_counts = {category.value: 0 for category in InstructionCategory}
        spills = 0
        scalar_instructions = 0
        cpu_nj = 0.0

        for entry in trace:
            if isinstance(entry, ScalarBlock):
                self.ops.append((_OP_SCALAR, len(self.scalar_blocks)))
                self.scalar_blocks.append(entry)
                scalar_instructions += entry.count
                cpu_nj += entry.count * coefficients.scalar_instruction_pj / 1000.0
                continue
            instruction: MVEInstruction = entry
            category = instruction.category
            vector_counts[category.value] += 1
            if isinstance(instruction, MemoryInstruction) and instruction.is_spill:
                spills += 1
            cpu_nj += 1 * coefficients.scalar_instruction_pj / 1000.0
            if category is InstructionCategory.CONFIG:
                self.ops.append((_OP_CONFIG, 0))
                continue
            memory_index = -1
            if category is InstructionCategory.MEMORY:
                memory_index = len(self.memory_instructions)
                self.memory_instructions.append(instruction)
            self.ops.append((_OP_ENGINE, len(self.engine_entries)))
            self.engine_entries.append((instruction, memory_index))

        self.vector_counts = vector_counts
        self.spill_instructions = spills
        self.scalar_instructions = scalar_instructions
        self.cpu_nj = cpu_nj
        self._lines_by_width: dict[int, list[np.ndarray]] = {}

    def lines_for(self, line_bytes: int) -> list[np.ndarray]:
        """Cache-line footprints of every memory instruction, memoized per
        line size (they are pure functions of instruction and line size)."""
        lines = self._lines_by_width.get(line_bytes)
        if lines is None:
            lines = trace_footprints(self.memory_instructions, line_bytes)
            self._lines_by_width[line_bytes] = lines
        return lines


# --------------------------------------------------------------------- #
#  Memory pass: one chunked stream replay per cache/DRAM-structure key
# --------------------------------------------------------------------- #

#: lines per stream chunk of the memory pass; chunks are whole instructions
#: (an instruction larger than this is a chunk of its own).  Bounds the
#: pass's transient arrays while keeping enough lines per cache call to
#: amortize numpy's per-call overhead.
STREAM_CHUNK_LINES = 8192


class _MemoryPass:
    """Timing and stats of the memory instructions under one hierarchy.

    ``cycles`` maps each DRAM timing variant to the per-memory-instruction
    block cycles; the hit/miss/access deltas, the final DRAM byte count and
    the L2 hit rate are shared because state evolution never depends on
    timing parameters.
    """

    def __init__(self) -> None:
        self.cycles: dict[DRAMConfig, list[int]] = {}
        self.l2_hits: list[int] = []
        self.llc_hits: list[int] = []
        self.dram_accesses: list[int] = []
        self.dram_bytes: int = 0
        self.l2_hit_rate: float = 0.0


def _stream_chunks(sizes: np.ndarray) -> list[tuple[int, int]]:
    """Split a stream of instructions (``sizes`` lines each) into
    ``[begin, end)`` runs of whole instructions of about
    :data:`STREAM_CHUNK_LINES` lines."""
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    chunks = []
    begin = 0
    while begin < sizes.size:
        end = int(np.searchsorted(bounds, bounds[begin] + STREAM_CHUNK_LINES, side="right")) - 1
        end = max(end, begin + 1)
        chunks.append((begin, end))
        begin = end
    return chunks


def _run_memory_pass(
    static: _StaticTrace,
    hierarchy_config,
    l2_compute_ways: int,
    dram_variants: Sequence[DRAMConfig],
    warm_cache: bool,
) -> _MemoryPass:
    """Replay the memory footprint stream once, pricing every DRAM timing
    variant; state-wise the same as :meth:`MVESimulator._memory_duration`
    per instruction (after a warm-up run when ``warm_cache``).

    The replay path never fills the L1 or sets a presence bit, the L2 never
    depends on the LLC and the LLC never on the DRAM, so each level is
    resolved over a chunk of the ordered line stream at once: the chunk's
    lines go to the L2, its L2 misses to the LLC and the LLC misses to the
    DRAM row-buffer classifier.  Per-instruction counts and cycles are then
    read back from where each instruction's lines sit in the chunk.
    """
    hierarchy = make_hierarchy(
        hierarchy_config, l2_compute_ways=l2_compute_ways, scalar=False
    )
    line_bytes = hierarchy.line_bytes
    inclusive = hierarchy.config.l2.inclusive
    mshr_entries = hierarchy.config.l2.mshr_entries
    l2_hit_latency = hierarchy.config.l2.hit_latency
    base_miss_latency = l2_hit_latency + hierarchy.config.llc.hit_latency
    lines_per_cycle = hierarchy.VECTOR_LINES_PER_CYCLE
    pricing_models = [DRAMModel(variant) for variant in dram_variants]

    footprints = static.lines_for(line_bytes)
    count = len(footprints)
    replays = 2 if warm_cache else 1
    # The stream: every memory instruction's lines in trace order, once per
    # replay; only the last replay is recorded.
    sizes = np.tile(
        np.fromiter((lines.size for lines in footprints), dtype=np.int64, count=count),
        replays,
    )
    stores = np.tile(
        np.fromiter(
            (instruction.is_store for instruction in static.memory_instructions),
            dtype=bool,
            count=count,
        ),
        replays,
    )
    recorded = (replays - 1) * count

    result = _MemoryPass()
    for variant in dram_variants:
        result.cycles[variant] = []
    for begin, end in _stream_chunks(sizes):
        chunk_sizes = sizes[begin:end]
        lines = np.concatenate([footprints[i % count] for i in range(begin, end)])
        owner = np.repeat(np.arange(end - begin), chunk_sizes)
        writes = np.repeat(stores[begin:end], chunk_sizes)

        l2_hit = hierarchy.l2.access_batch(
            lines, writes, clear_presence=True, collect_evictions=inclusive
        )
        if inclusive:
            evicted = hierarchy.l2.take_evictions()
            if evicted.size:
                hierarchy.l1d.invalidate_batch(evicted)
        l2_miss = ~l2_hit
        miss_lines = lines[l2_miss]
        miss_owner = owner[l2_miss]
        miss_writes = writes[l2_miss]
        llc_hit = hierarchy.llc.access_batch(miss_lines, miss_writes)
        to_dram = ~llc_hit
        row_hit = hierarchy.dram.classify_batch(
            miss_lines[to_dram], miss_writes[to_dram], line_bytes
        )
        if end <= recorded:
            continue

        # Record the chunk's instructions of the last replay.
        first = max(begin, recorded) - begin
        width = end - begin
        l2_hits = np.bincount(owner[l2_hit], minlength=width).tolist()
        llc_hits = np.bincount(miss_owner[llc_hit], minlength=width).tolist()
        dram_accesses = np.bincount(miss_owner[to_dram], minlength=width).tolist()
        result.l2_hits.extend(l2_hits[first:])
        result.llc_hits.extend(llc_hits[first:])
        result.dram_accesses.extend(dram_accesses[first:])
        # the chunk's L2 misses are in stream order, so each instruction's
        # misses are one contiguous run of them
        miss_bounds = np.concatenate(([0], np.cumsum(chunk_sizes) - np.cumsum(l2_hits))).tolist()
        for variant, model in zip(dram_variants, pricing_models):
            latencies = np.full(miss_lines.size, base_miss_latency, dtype=np.int64)
            latencies[to_dram] += model.latencies_from_classification(row_hit, line_bytes)
            latencies = latencies.tolist()
            cycles = result.cycles[variant]
            for position in range(first, width):
                miss_latencies = latencies[miss_bounds[position] : miss_bounds[position + 1]]
                cycles.append(
                    aggregate_block_cycles(
                        l2_hits[position],
                        miss_latencies,
                        mshr_entries,
                        l2_hit_latency,
                        model.bandwidth_cycles(len(miss_latencies) * line_bytes),
                        lines_per_cycle,
                    )
                )

    accesses = int(sizes[recorded:].sum())
    result.dram_bytes = sum(result.dram_accesses) * line_bytes
    result.l2_hit_rate = sum(result.l2_hits) / accesses if accesses else 0.0
    return result


def _memory_data_energy(
    static: _StaticTrace, memory: _MemoryPass, coefficients: EnergyCoefficients
) -> float:
    """``data_access_nj`` for one memory pass, accumulated in trace order
    (scalar L1 terms, cache-line terms, TMU terms) so the float sum matches
    the per-config simulator bit for bit."""
    data_nj = 0.0
    for op, payload in static.ops:
        if op == _OP_SCALAR:
            block = static.scalar_blocks[payload]
            data_nj += (block.loads + block.stores) * coefficients.l1_access_pj / 1000.0
        elif op == _OP_ENGINE:
            instruction, memory_index = static.engine_entries[payload]
            if memory_index < 0:
                continue
            data_nj += (
                memory.l2_hits[memory_index] * coefficients.l2_line_access_pj
                + memory.llc_hits[memory_index] * coefficients.llc_line_access_pj
                + memory.dram_accesses[memory_index] * coefficients.dram_line_access_pj
            ) / 1000.0
            data_nj += (
                instruction.active_elements() * coefficients.tmu_element_pj / 1000.0
            )
    return data_nj


# --------------------------------------------------------------------- #
#  Compute pass: placement / SRAM / TMU latencies per compute key
# --------------------------------------------------------------------- #


class _ComputePass:
    """Per-entry engine-side latencies for one (scheme, geometry, knobs) key."""

    def __init__(self, n_engine: int, n_memory: int) -> None:
        #: duration of each compute entry (None for memory entries)
        self.compute_durations: list[Optional[float]] = [None] * n_engine
        #: per-engine-entry utilization fractions
        self.lane_utilization: list[float] = [0.0] * n_engine
        self.cb_utilization: list[float] = [0.0] * n_engine
        #: per-memory-instruction TMU and SRAM-row components
        self.tmu_cycles: list[int] = [0] * n_memory
        self.sram_row_cycles: list[float] = [0.0] * n_memory
        self.compute_nj: float = 0.0


def _run_compute_pass(
    static: _StaticTrace,
    scheme: ComputeScheme,
    config: MachineConfig,
    coefficients: EnergyCoefficients,
) -> _ComputePass:
    """Evaluate every placement-, scheme- and TMU-dependent quantity once for
    all configs sharing this compute key.

    Those quantities depend on an instruction only through its class,
    opcode, dtype, direction, shape and mask, so each distinct such pattern
    is evaluated once per call; the energy terms are still added per entry
    in trace order, keeping the float sum bit-identical.
    """
    controller = MVEControllerModel(config.engine, scheme)
    tmu = TransposeMemoryUnit(config.tmu)
    multiplier = config.sram_cycle_multiplier
    float_factor = config.float_latency_factor
    dispatch = config.controller_dispatch_cycles
    energy_factor = scheme.energy_per_cycle_factor
    controller_nj = 1 * coefficients.controller_instruction_pj / 1000.0

    def evaluate(instruction: MVEInstruction, is_memory: bool) -> tuple:
        """(lane utilization, CB utilization, TMU cycles, SRAM-row cycles)
        of a memory instruction, or (lane utilization, CB utilization,
        duration, energy term) of a compute one."""
        element_bits = instruction.dtype.bits
        placement = controller.placement(instruction, element_bits)
        if is_memory:
            active_elements = instruction.active_elements()
            active_cbs = max(1, placement.active_control_blocks)
            elements_per_cb = (active_elements + active_cbs - 1) // active_cbs
            if instruction.is_store:
                cycles = tmu.drain_cycles(elements_per_cb, element_bits)
            else:
                cycles = tmu.fill_cycles(elements_per_cb, element_bits)
            term = controller.memory_row_cycles(instruction) * multiplier
        else:
            sram_cycles = controller.compute_sram_cycles(
                instruction, element_bits, float_factor, placement
            )
            cycles = sram_cycles * multiplier + dispatch
            term = (
                sram_cycles
                * placement.active_lanes
                * coefficients.sram_cycle_per_lane_pj
                * energy_factor
                / 1000.0
            )
        return placement.lane_utilization, placement.cb_utilization, cycles, term

    result = _ComputePass(len(static.engine_entries), len(static.memory_instructions))
    memo: dict[tuple, tuple] = {}
    compute_nj = 0.0
    for op, payload in static.ops:
        if op != _OP_ENGINE:
            if op == _OP_CONFIG:
                compute_nj += controller_nj
            continue
        compute_nj += controller_nj
        instruction, memory_index = static.engine_entries[payload]
        key = (
            type(instruction),
            instruction.opcode,
            instruction.dtype,
            getattr(instruction, "is_store", False),
            getattr(instruction, "shape_lengths", ()),
            getattr(instruction, "mask", None),
        )
        entry = memo.get(key)
        if entry is None:
            entry = memo[key] = evaluate(instruction, memory_index >= 0)
        lane_utilization, cb_utilization, cycles, term = entry
        result.lane_utilization[payload] = lane_utilization
        result.cb_utilization[payload] = cb_utilization
        if memory_index >= 0:
            result.tmu_cycles[memory_index] = cycles
            result.sram_row_cycles[memory_index] = term
        else:
            result.compute_durations[payload] = cycles
            compute_nj += term
    result.compute_nj = compute_nj
    return result


# --------------------------------------------------------------------- #
#  Pair merge and per-config timeline
# --------------------------------------------------------------------- #


class _PairDurations:
    """Per-entry durations plus their order-faithful aggregates for one
    (memory variant, compute key) pair."""

    def __init__(
        self,
        static: _StaticTrace,
        memory_cycles: Sequence[int],
        compute: _ComputePass,
        dispatch: int,
    ) -> None:
        durations: list[float] = []
        compute_sum = 0.0
        data_sum = 0.0
        lane_weight = 0.0
        cb_weight = 0.0
        weight_total = 0.0
        for index, (instruction, memory_index) in enumerate(static.engine_entries):
            if memory_index >= 0:
                duration = (
                    max(memory_cycles[memory_index], compute.tmu_cycles[memory_index])
                    + compute.sram_row_cycles[memory_index]
                    + dispatch
                )
                data_sum += duration
            else:
                duration = compute.compute_durations[index]
                compute_sum += duration
            durations.append(duration)
            lane_weight += compute.lane_utilization[index] * duration
            cb_weight += compute.cb_utilization[index] * duration
            weight_total += duration
        self.durations = durations
        self.compute_cycles = compute_sum
        self.data_access_cycles = data_sum
        self.lane_utilization = (lane_weight / weight_total) if weight_total else 0.0
        self.cb_utilization = (cb_weight / weight_total) if weight_total else 0.0


def _run_timeline(
    static: _StaticTrace,
    scalar_cycles: Sequence[float],
    durations: Sequence[float],
    config: MachineConfig,
) -> tuple[float, float]:
    """The core/engine occupancy recurrence of :meth:`MVESimulator.run`,
    reduced to its timing skeleton; returns (total_cycles, raw idle)."""
    core_time = 0.0
    engine_free = 0.0
    idle = 0.0
    queue: deque[float] = deque()
    queue_capacity = config.instruction_queue_entries
    dispatch = config.controller_dispatch_cycles
    issue = config.vector_issue_cycles

    for op, payload in static.ops:
        if op == _OP_SCALAR:
            core_time += scalar_cycles[payload]
            continue
        core_time += issue
        while queue and queue[0] <= core_time:
            queue.popleft()
        if len(queue) >= queue_capacity:
            core_time = max(core_time, queue.popleft())
        if op == _OP_CONFIG:
            queue.append(core_time + dispatch)
            continue
        issue_time = core_time + dispatch
        start = max(issue_time, engine_free)
        if start > engine_free:
            idle += start - engine_free
        engine_free = start + durations[payload]
        queue.append(engine_free)

    total_cycles = max(core_time, engine_free)
    return total_cycles, idle


def _scalar_block_cycles(static: _StaticTrace, scalar_ipc: float) -> list[float]:
    """Scalar-block durations under one issue rate (see
    :meth:`ScalarCoreModel.scalar_block_cycles`)."""
    durations = []
    for block in static.scalar_blocks:
        cycles = block.count / scalar_ipc
        cycles += (block.loads + block.stores) * 0.5
        durations.append(cycles)
    return durations


# --------------------------------------------------------------------- #
#  Entry point
# --------------------------------------------------------------------- #


def _compute_key(config: MachineConfig, scheme: ComputeScheme) -> tuple:
    return (
        type(scheme),
        scheme.name,
        getattr(scheme, "segment_bits", None),
        config.engine,
        config.tmu,
        config.sram_cycle_multiplier,
        config.float_latency_factor,
        config.controller_dispatch_cycles,
    )


def _memory_key(config: MachineConfig) -> tuple:
    hierarchy = config.hierarchy
    return (
        hierarchy.l1d,
        hierarchy.l2,
        hierarchy.llc,
        config.l2_compute_ways,
        hierarchy.dram.structure,
    )


def _replay_compiled_batch(
    trace: Sequence[TraceEntry],
    members: list[tuple[int, MachineConfig, ComputeScheme]],
    warm_cache: bool,
) -> dict[int, SimulationResult]:
    """Replay one compiled trace for every member config, sharing the
    memory and compute passes across the axis."""
    coefficients = EnergyCoefficients()
    static = _StaticTrace(trace, coefficients)

    # Memory passes: one hierarchy replay per cache/DRAM-structure key, with
    # DRAM-timing variants priced inside the same pass.
    memory_groups: dict[tuple, dict] = {}
    for index, config, _ in members:
        group = memory_groups.setdefault(
            _memory_key(config), {"hierarchy": config.hierarchy, "variants": []}
        )
        if config.hierarchy.dram not in group["variants"]:
            group["variants"].append(config.hierarchy.dram)
    memory_passes: dict[tuple, _MemoryPass] = {}
    data_energy: dict[tuple, float] = {}
    for key, group in memory_groups.items():
        l2_compute_ways = key[3]
        memory_passes[key] = _run_memory_pass(
            static, group["hierarchy"], l2_compute_ways, group["variants"], warm_cache
        )
        data_energy[key] = _memory_data_energy(static, memory_passes[key], coefficients)

    # Compute passes: one per (scheme, engine geometry, knobs) key.
    compute_passes: dict[tuple, _ComputePass] = {}
    for index, config, scheme in members:
        key = _compute_key(config, scheme)
        if key not in compute_passes:
            compute_passes[key] = _run_compute_pass(static, scheme, config, coefficients)

    pair_cache: dict[tuple, _PairDurations] = {}
    scalar_cache: dict[float, list[float]] = {}
    results: dict[int, SimulationResult] = {}
    for index, config, scheme in members:
        memory_key = _memory_key(config)
        compute_key = _compute_key(config, scheme)
        memory = memory_passes[memory_key]
        compute = compute_passes[compute_key]
        pair_key = (memory_key, config.hierarchy.dram, compute_key)
        pair = pair_cache.get(pair_key)
        if pair is None:
            pair = _PairDurations(
                static,
                memory.cycles[config.hierarchy.dram],
                compute,
                config.controller_dispatch_cycles,
            )
            pair_cache[pair_key] = pair
        scalar_cycles = scalar_cache.get(config.scalar_ipc)
        if scalar_cycles is None:
            scalar_cycles = _scalar_block_cycles(static, config.scalar_ipc)
            scalar_cache[config.scalar_ipc] = scalar_cycles

        total_cycles, idle = _run_timeline(static, scalar_cycles, pair.durations, config)
        idle = max(idle, total_cycles - pair.compute_cycles - pair.data_access_cycles)
        seconds = total_cycles / (config.frequency_ghz * 1e9)
        power_mw = coefficients.core_static_mw + coefficients.cache_static_mw
        static_nj = power_mw * 1e-3 * seconds * 1e9

        results[index] = SimulationResult(
            total_cycles=total_cycles,
            idle_cycles=idle,
            compute_cycles=pair.compute_cycles,
            data_access_cycles=pair.data_access_cycles,
            scalar_instructions=static.scalar_instructions,
            vector_instructions=dict(static.vector_counts),
            spill_instructions=static.spill_instructions,
            lane_utilization=pair.lane_utilization,
            cb_utilization=pair.cb_utilization,
            energy=EnergyBreakdown(
                compute_nj=compute.compute_nj,
                data_access_nj=data_energy[memory_key],
                cpu_nj=static.cpu_nj,
                static_nj=static_nj,
            ),
            frequency_ghz=config.frequency_ghz,
            dram_bytes=memory.dram_bytes,
            l2_hit_rate=memory.l2_hit_rate,
        )
    return results


def _replay_members(
    trace: Sequence[TraceEntry],
    members: list[tuple[int, MachineConfig, ComputeScheme]],
    warm_cache: bool,
) -> dict[int, SimulationResult]:
    """Replay one compiled trace for every member config: the decomposed
    replay, or the per-config reference when batching is switched off."""
    if not batched_replay_enabled():
        from .simulator import run_reference

        return {
            index: run_reference(trace, config, scheme, warm_cache)
            for index, config, scheme in members
        }
    return _replay_compiled_batch(trace, members, warm_cache)


def replay_compiled(
    trace: Sequence[TraceEntry],
    config: MachineConfig,
    scheme: Optional[ComputeScheme] = None,
    warm_cache: bool = True,
) -> SimulationResult:
    """Replay an already-compiled trace under one configuration (the replay
    half of :func:`~repro.core.simulator.simulate_kernel`)."""
    if scheme is None:
        scheme = get_scheme(config.scheme_name)
    return _replay_members(trace, [(0, config, scheme)], warm_cache)[0]


def simulate_trace_batch(
    trace: Sequence[TraceEntry],
    configs: Sequence[MachineConfig],
    schemes: Optional[Sequence[Optional[ComputeScheme]]] = None,
    warm_cache: bool = True,
) -> list[tuple[SimulationResult, CompiledKernel]]:
    """Replay one captured trace under every configuration in ``configs``.

    Returns ``(result, compiled)`` pairs in input order.  Configs sharing
    register-file geometry share the compiled kernel (through
    :func:`compile_trace_cached`) and one decomposed replay (memory pass per
    hierarchy key, compute pass per scheme/geometry key, cheap per-config
    timeline); geometry changes split the batch, exactly as
    :func:`replay_group_key` describes.  One config is simply a batch of
    one: :func:`~repro.core.simulator.simulate_trace` delegates here.

    ``schemes`` optionally pins a scheme object per config (defaulting to
    ``get_scheme(config.scheme_name)``).  ``REPRO_BATCHED_REPLAY=0`` (or the
    scalar cache reference, ``REPRO_SCALAR_CACHE=1``) replays every config
    through the per-config reference
    :meth:`~repro.core.simulator.MVESimulator.run` instead, bit-identical
    to the decomposed replay; the parity suite pins that.
    """
    if schemes is None:
        schemes = [None] * len(configs)
    if len(schemes) != len(configs):
        raise ValueError("schemes must match configs one-to-one")
    resolved_schemes = [
        scheme if scheme is not None else get_scheme(config.scheme_name)
        for config, scheme in zip(configs, schemes)
    ]

    by_geometry: dict[tuple, list[tuple[int, MachineConfig, ComputeScheme]]] = {}
    for index, (config, scheme) in enumerate(zip(configs, resolved_schemes)):
        by_geometry.setdefault(replay_group_key(config), []).append(
            (index, config, scheme)
        )

    results: dict[int, SimulationResult] = {}
    compiled_for: dict[int, CompiledKernel] = {}
    for members in by_geometry.values():
        _, first_config, _ = members[0]
        register_file = PhysicalRegisterFile(
            num_arrays=first_config.engine.num_arrays,
            array_rows=first_config.engine.array.rows,
            array_cols=first_config.engine.array.cols,
        )
        compiled = compile_trace_cached(trace, register_file=register_file)
        group_results = _replay_members(compiled.trace, members, warm_cache)
        for index, _, _ in members:
            results[index] = group_results[index]
            compiled_for[index] = compiled
    return [(results[index], compiled_for[index]) for index in range(len(configs))]
