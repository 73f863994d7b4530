"""MVE instruction-set architecture definitions."""

from .datatypes import DataType, DTypeInfo, DTYPE_INFO, parse_suffix
from .encoding import StrideMode, resolve_strides, MAX_DIMS
from .mask import DimMask
from .registers import (
    ControlRegisters,
    PhysicalRegisterFile,
    VectorShape,
    MAX_MASK_ELEMENTS,
)
from .instructions import (
    ArithmeticInstruction,
    ConfigInstruction,
    InstructionCategory,
    MemoryInstruction,
    MoveInstruction,
    MVEInstruction,
    Opcode,
    ScalarBlock,
    TraceEntry,
)

__all__ = [
    "DataType",
    "DTypeInfo",
    "DTYPE_INFO",
    "parse_suffix",
    "StrideMode",
    "resolve_strides",
    "MAX_DIMS",
    "ControlRegisters",
    "PhysicalRegisterFile",
    "VectorShape",
    "MAX_MASK_ELEMENTS",
    "DimMask",
    "ArithmeticInstruction",
    "ConfigInstruction",
    "InstructionCategory",
    "MemoryInstruction",
    "MoveInstruction",
    "MVEInstruction",
    "Opcode",
    "ScalarBlock",
    "TraceEntry",
]
