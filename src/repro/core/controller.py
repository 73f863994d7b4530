"""MVE controller and control-block models (Section V-B).

The controller sits next to the L2 cache controller.  It receives MVE
instructions from the core in program order, holds them in the Instruction
Queue, resolves dimension-level masks into a per-instruction control-block
bit-vector, and issues micro-ops to the control blocks (CBs).  Each CB is a
finite-state machine shared by four SRAM arrays.

For the cycle-accounting simulator the controller provides two services:

* mapping a vector instruction onto CBs (how many CBs participate, how many
  SIMD lanes are active, how many times the operation must be repeated when
  the scheme exposes fewer lanes than the logical vector needs), and
* the latency of a compute micro-op for the configured in-SRAM scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..isa.instructions import ArithmeticInstruction, MemoryInstruction, MoveInstruction, Opcode
from ..sram.array import EngineGeometry
from ..sram.schemes import ComputeScheme

__all__ = ["InstructionPlacement", "MVEControllerModel"]


@dataclass(frozen=True)
class InstructionPlacement:
    """How one vector instruction maps onto the in-cache engine."""

    active_elements: int
    active_lanes: int
    total_lanes: int
    active_control_blocks: int
    total_control_blocks: int
    repeats: int

    @property
    def lane_utilization(self) -> float:
        return self.active_lanes / self.total_lanes if self.total_lanes else 0.0

    @property
    def cb_utilization(self) -> float:
        if not self.total_control_blocks:
            return 0.0
        return self.active_control_blocks / self.total_control_blocks


class MVEControllerModel:
    """Maps instructions onto control blocks and computes micro-op latencies."""

    def __init__(self, geometry: EngineGeometry, scheme: ComputeScheme):
        self.geometry = geometry
        self.scheme = scheme

    def _active_elements(self, instruction) -> int:
        lengths = getattr(instruction, "shape_lengths", ())
        if not lengths:
            return self.geometry.bitlines
        return instruction.mask.active_elements(lengths)

    def placement(self, instruction, element_bits: int) -> InstructionPlacement:
        """Compute lane/CB occupancy and repeat count for an instruction."""
        active_elements = self._active_elements(instruction)
        scheme_lanes = self.scheme.lanes(self.geometry, element_bits)
        bitline_lanes = self.geometry.bitlines
        lanes_per_cb = self.geometry.lanes_per_control_block
        total_cbs = self.geometry.num_control_blocks

        # Elements map onto bit-lines in logical-lane order; the number of
        # bit-lines (and therefore CBs) touched is based on element count,
        # capped at the engine size.
        occupied_bitlines = min(active_elements, bitline_lanes)
        active_cbs = max(1, math.ceil(occupied_bitlines / lanes_per_cb)) if active_elements else 0
        repeats = max(1, math.ceil(active_elements / scheme_lanes)) if active_elements else 1
        active_lanes = min(active_elements, scheme_lanes)
        return InstructionPlacement(
            active_elements=active_elements,
            active_lanes=active_lanes,
            total_lanes=scheme_lanes,
            active_control_blocks=active_cbs,
            total_control_blocks=total_cbs,
            repeats=repeats,
        )

    def compute_sram_cycles(
        self,
        instruction,
        element_bits: int,
        float_factor: float,
        placement: InstructionPlacement | None = None,
    ) -> float:
        """SRAM cycles for an arithmetic or move instruction.

        ``placement`` may carry the caller's already-computed placement for
        this instruction to avoid resolving the mapping twice.
        """
        if isinstance(instruction, MoveInstruction):
            opcode = Opcode.CONVERT if instruction.opcode is Opcode.CONVERT else Opcode.COPY
            dtype = instruction.dtype
        elif isinstance(instruction, ArithmeticInstruction):
            opcode = instruction.opcode
            dtype = instruction.dtype
        else:
            raise TypeError(f"not a compute instruction: {instruction!r}")
        bits = dtype.bits
        latency = self.scheme.op_latency(opcode, bits)
        if dtype.is_float:
            latency *= float_factor
        if placement is None:
            placement = self.placement(instruction, bits)
        return latency * placement.repeats

    def memory_row_cycles(self, instruction: MemoryInstruction) -> float:
        """SRAM-side cycles to move a register between the arrays and the TMU."""
        bits = instruction.dtype.bits
        return bits * self.scheme.row_access_latency()
