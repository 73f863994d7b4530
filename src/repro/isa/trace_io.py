"""Compact columnar (de)serialization for MVE instruction traces.

A captured trace is a straight-line list of :data:`~repro.isa.instructions.TraceEntry`
objects -- typically thousands of small dataclasses whose fields are enums,
ints, short tuples and packed dimension masks.  Persisting them as
row-oriented JSON would be both large and slow, so the codec here turns a
trace into a handful of parallel numpy columns:

* fixed-width fields become one column each, stored in the narrowest
  signed integer type that holds the column's values;
* variable-length tuple fields (``sources``, ``stride_modes``,
  ``random_bases``, ``strides``, ``shape``) become a per-entry
  ``<name>_lengths`` column plus the concatenated ``<name>_values``;
* dimension masks (:class:`~repro.isa.mask.DimMask`) become a per-entry
  ``mask_lengths`` column (elements of the highest dimension, 0 = no mask)
  plus ``mask_bits``, the masks' packed bytes (``ceil(length / 8)`` per
  entry) laid end to end.

:func:`pack_trace` places the columns back to back, 8-byte aligned, in
one flat buffer that starts with a small JSON header naming each column's
dtype and length.  :func:`encode_trace` compresses that buffer as the one
member of an ``.npz`` archive and wraps the archive in a small base64 JSON
envelope.  The envelope is what travels
through the content-addressed result store -- including its HTTP remote
tier, which only speaks JSON records.

The round trip is exact: ``decode_trace(encode_trace(trace)) == trace``
entry for entry (dataclass equality), including empty-vs-populated masks,
``None`` immediates and scalar-block notes.  Exactness is what lets the
staged pipeline replay a cached trace through the timing simulator and
reproduce the fused capture+simulate path bit for bit.

The columnar intermediate representation is a public surface of its own:
:func:`trace_columns` / :func:`entries_from_columns` expose the raw numpy
columns without the compress/base64 envelope, and the same
:func:`pack_trace` / :func:`unpack_columns` buffer is what the
shared-memory trace arena
(:mod:`repro.core.trace_arena`) ships between the sweep parent and its
pool workers -- same columns, same entry reconstruction, so the arena path
is exact for the same reason the envelope path is.  :func:`scalar_notes`
carries the one non-columnar field (scalar-block note strings) alongside.
"""

from __future__ import annotations

import base64
import io
import json
from itertools import chain
from typing import Sequence

import numpy as np

from .datatypes import DataType
from .instructions import (
    ArithmeticInstruction,
    ConfigInstruction,
    MemoryInstruction,
    MoveInstruction,
    Opcode,
    ScalarBlock,
    TraceEntry,
)
from .mask import DimMask

__all__ = [
    "TRACE_CODEC",
    "encode_trace",
    "decode_trace",
    "entries_from_columns",
    "pack_trace",
    "scalar_notes",
    "trace_columnar_bytes",
    "trace_columns",
    "trace_payload_bytes",
    "unpack_columns",
]

#: codec identifier embedded in every payload; bump on incompatible changes
TRACE_CODEC = "npz-columnar-v2"

#: entry-kind discriminator column values
_KIND_SCALAR = 0
_KIND_CONFIG = 1
_KIND_MOVE = 2
_KIND_MEMORY = 3
_KIND_ARITH = 4

#: flag bits packed into the ``flags`` column
_FLAG_STORE = 1
_FLAG_RANDOM = 2
_FLAG_SPILL = 4
_FLAG_IMMEDIATE = 8

# Enum codes rely on definition order, which is part of the source the
# functional fingerprint hashes -- a reordering invalidates old payloads
# through the cache key before a stale decode could ever happen.
_OPCODES = tuple(Opcode)
_OPCODE_CODE = {opcode: index for index, opcode in enumerate(_OPCODES)}
_DTYPES = tuple(DataType)
_DTYPE_CODE = {dtype: index for index, dtype in enumerate(_DTYPES)}

#: variable-length tuple fields, each stored as lengths + concatenated values
_VAR_COLUMNS = ("sources", "stride_modes", "random_bases", "strides", "shape")
_NO_VALUES = ((),) * len(_VAR_COLUMNS)

#: fixed-width columns in row order; every one but ``immediate`` is integer.
#: Meaning of the operand columns a / b / c depends on the entry kind:
#:   scalar: count / loads / stores    config: operand_a / operand_b / -
#:   move:   dest / src / -            memory: register / - / -
#:   arith:  dest / - / -
_FIXED_COLUMNS = (
    "kind", "opcode", "dtype", "src_dtype", "a", "b", "c", "base_address",
    "flags", "immediate",
)

#: leading field of a flat column buffer: the length of its JSON header
_HEADER_SIZE = np.dtype("<u4")


def _narrow(values) -> np.ndarray:
    """``values`` as the narrowest signed integer array that holds them."""
    array = np.asarray(values, dtype=np.int64)
    if array.size == 0:
        return array.astype(np.int8)
    low, high = int(array.min()), int(array.max())
    for dtype in (np.int8, np.int16, np.int32):
        info = np.iinfo(dtype)
        if info.min <= low and high <= info.max:
            return array.astype(dtype)
    return array


def trace_columns(trace: Sequence[TraceEntry]) -> dict[str, np.ndarray]:
    """The trace as its parallel numpy columns (the codec's IR).

    The mapping is everything :func:`entries_from_columns` needs to rebuild
    the exact entry list except scalar-block note strings
    (:func:`scalar_notes`), which are not columnar.
    """
    rows: list[tuple] = []
    var: list[tuple] = []
    masks: list[DimMask] = []
    for entry in trace:
        if isinstance(entry, ScalarBlock):
            rows.append((_KIND_SCALAR, -1, -1, -1, entry.count, entry.loads, entry.stores, 0, 0, 0.0))
            var.append(_NO_VALUES)
            masks.append(DimMask.EMPTY)
        elif isinstance(entry, ConfigInstruction):
            rows.append((
                _KIND_CONFIG, _OPCODE_CODE[entry.opcode], -1, -1,
                entry.operand_a, entry.operand_b, 0, 0, 0, 0.0,
            ))
            var.append(_NO_VALUES)
            masks.append(DimMask.EMPTY)
        elif isinstance(entry, MoveInstruction):
            rows.append((
                _KIND_MOVE, _OPCODE_CODE[entry.opcode], _DTYPE_CODE[entry.dtype],
                -1 if entry.src_dtype is None else _DTYPE_CODE[entry.src_dtype],
                entry.dest, entry.src, 0, 0, 0, 0.0,
            ))
            var.append(_NO_VALUES)
            masks.append(DimMask.EMPTY)
        elif isinstance(entry, MemoryInstruction):
            flags = (
                (_FLAG_STORE if entry.is_store else 0)
                | (_FLAG_RANDOM if entry.is_random else 0)
                | (_FLAG_SPILL if entry.is_spill else 0)
            )
            rows.append((
                _KIND_MEMORY, _OPCODE_CODE[entry.opcode], _DTYPE_CODE[entry.dtype], -1,
                entry.register, 0, 0, entry.base_address, flags, 0.0,
            ))
            var.append((
                (), entry.stride_modes, entry.random_bases, entry.resolved_strides,
                entry.shape_lengths,
            ))
            masks.append(entry.mask)
        elif isinstance(entry, ArithmeticInstruction):
            has_immediate = entry.immediate is not None
            rows.append((
                _KIND_ARITH, _OPCODE_CODE[entry.opcode], _DTYPE_CODE[entry.dtype], -1,
                entry.dest, 0, 0, 0,
                _FLAG_IMMEDIATE if has_immediate else 0,
                entry.immediate if has_immediate else 0.0,
            ))
            var.append((entry.sources, (), (), (), entry.shape_lengths))
            masks.append(entry.mask)
        else:
            raise TypeError(f"cannot encode trace entry of type {type(entry).__name__}")

    fixed = list(zip(*rows)) or [()] * len(_FIXED_COLUMNS)
    columns = {
        name: np.asarray(values, dtype=np.float64) if name == "immediate" else _narrow(values)
        for name, values in zip(_FIXED_COLUMNS, fixed)
    }
    fields = list(zip(*var)) or [()] * len(_VAR_COLUMNS)
    for name, tuples in zip(_VAR_COLUMNS, fields):
        columns[f"{name}_lengths"] = _narrow([len(items) for items in tuples])
        columns[f"{name}_values"] = _narrow(list(chain.from_iterable(tuples)))
    columns["mask_lengths"] = _narrow([mask.length for mask in masks])
    columns["mask_bits"] = np.frombuffer(
        b"".join(mask.bits for mask in masks), dtype=np.uint8
    )
    return columns


def pack_trace(trace: Sequence[TraceEntry]) -> np.ndarray:
    """The trace's :func:`trace_columns` in one flat, self-describing buffer.

    The buffer starts with the length of a JSON header (uint32) and the
    header itself, one ``[name, dtype, count]`` triple per column; the
    columns follow back to back.  :func:`unpack_columns` reads it back.
    """
    columns = trace_columns(trace)
    header = json.dumps(
        [[name, column.dtype.str, len(column)] for name, column in columns.items()],
        separators=(",", ":"),
    ).encode()
    spans, size = _column_spans(header)
    buffer = np.zeros(size, dtype=np.uint8)
    buffer[:_HEADER_SIZE.itemsize].view(_HEADER_SIZE)[0] = len(header)
    buffer[_HEADER_SIZE.itemsize:_HEADER_SIZE.itemsize + len(header)] = np.frombuffer(
        header, dtype=np.uint8
    )
    for name, dtype, offset, count in spans:
        buffer[offset:offset + dtype.itemsize * count] = columns[name].view(np.uint8)
    return buffer


def _column_spans(header: bytes) -> tuple[list[tuple], int]:
    """``(name, dtype, offset, count)`` per column, and the buffer size.
    Each column is 8-byte aligned, so every view over the buffer is
    itemsize-aligned no matter which dtypes precede it."""
    spans = []
    offset = _HEADER_SIZE.itemsize + len(header)
    for name, dtype, count in json.loads(header):
        dtype = np.dtype(dtype)
        offset = (offset + 7) & ~7
        spans.append((name, dtype, offset, count))
        offset += dtype.itemsize * count
    return spans, offset


def unpack_columns(buffer) -> dict[str, np.ndarray]:
    """Zero-copy column views over a :func:`pack_trace` buffer (read-only
    when ``buffer`` is)."""
    size = int(np.frombuffer(buffer, dtype=_HEADER_SIZE, count=1)[0])
    header = bytes(
        np.frombuffer(buffer, dtype=np.uint8, count=size, offset=_HEADER_SIZE.itemsize)
    )
    return {
        name: np.frombuffer(buffer, dtype=dtype, count=count, offset=offset)
        for name, dtype, offset, count in _column_spans(header)[0]
    }


def scalar_notes(trace: Sequence[TraceEntry]) -> list[list]:
    """Sparse ``[index, note]`` pairs for scalar blocks carrying a note --
    the only trace field that does not fit the columnar IR."""
    return [
        [index, entry.note]
        for index, entry in enumerate(trace)
        if isinstance(entry, ScalarBlock) and entry.note
    ]


def encode_trace(trace: Sequence[TraceEntry]) -> dict:
    """Encode a trace into its JSON-safe columnar payload."""
    buffer = io.BytesIO()
    np.savez_compressed(buffer, columns=pack_trace(trace))
    payload = {
        "codec": TRACE_CODEC,
        "entries": len(trace),
        "npz_b64": base64.b64encode(buffer.getvalue()).decode("ascii"),
    }
    notes = scalar_notes(trace)
    if notes:
        payload["scalar_notes"] = notes
    return payload


def trace_payload_bytes(payload: dict) -> int:
    """Size of the compressed column data inside a payload, in bytes."""
    return len(payload.get("npz_b64", "")) * 3 // 4


def trace_columnar_bytes(columns) -> int:
    """Decoded columnar footprint: the bytes the raw column arrays occupy
    (what one arena segment holds, and what each pickled-trace task used
    to re-materialize)."""
    return int(sum(column.nbytes for column in columns.values()))


def decode_trace(payload: dict) -> list[TraceEntry]:
    """Rebuild the exact trace-entry list from an :func:`encode_trace` payload."""
    if not isinstance(payload, dict) or payload.get("codec") != TRACE_CODEC:
        raise ValueError(f"unsupported trace payload: {payload.get('codec') if isinstance(payload, dict) else payload!r}")
    try:
        raw = base64.b64decode(payload["npz_b64"])
        with np.load(io.BytesIO(raw)) as archive:
            data = archive["columns"]
    except ValueError:
        raise
    except Exception as error:
        # Truncated/bit-flipped column data surfaces as zipfile.BadZipFile,
        # zlib.error, OSError, ... depending on where the corruption lands.
        # Normalize to ValueError: "corrupt payload" is one condition to
        # callers, which degrade it to a recapture.
        raise ValueError(f"corrupt trace payload: {error}") from error

    return entries_from_columns(
        unpack_columns(data),
        int(payload["entries"]),
        payload.get("scalar_notes", ()),
    )


def _slices(values: np.ndarray, lengths: np.ndarray) -> list[tuple]:
    items = values.tolist()
    slices = []
    start = 0
    for length in lengths.tolist():
        slices.append(tuple(items[start:start + length]))
        start += length
    return slices


def _masks(lengths: np.ndarray, bits: np.ndarray) -> list[DimMask]:
    """One :class:`DimMask` per entry; equal masks share one object."""
    packed = bits.tobytes()
    shared = {(0, b""): DimMask.EMPTY}
    masks = []
    start = 0
    for length in lengths.tolist():
        stop = start + (length + 7) // 8
        key = (length, packed[start:stop])
        mask = shared.get(key)
        if mask is None:
            mask = shared[key] = DimMask(*key)
        masks.append(mask)
        start = stop
    return masks


def entries_from_columns(
    columns, n: int, notes: Sequence[Sequence] = ()
) -> list[TraceEntry]:
    """Rebuild the exact entry list from the columnar IR.

    ``columns`` is any mapping of column name to array-like (freshly loaded
    npz arrays, or the zero-copy shared-memory views the trace arena
    attaches); ``notes`` the sparse :func:`scalar_notes` pairs.  The
    reconstruction copies everything out of the arrays, so the backing
    buffers may be released as soon as this returns.
    """
    if len(columns["kind"]) != n:
        raise ValueError(
            f"trace payload declares {n} entries but carries {len(columns['kind'])}"
        )
    kind, opcode, dtype_col, src_dtype, a, b, c, base_address, flags, immediate = (
        columns[name].tolist() for name in _FIXED_COLUMNS
    )
    var = {
        name: _slices(columns[f"{name}_values"], columns[f"{name}_lengths"])
        for name in _VAR_COLUMNS
    }
    masks = _masks(columns["mask_lengths"], columns["mask_bits"])
    notes = {index: note for index, note in notes}

    trace: list[TraceEntry] = []
    for i in range(n):
        entry_kind = kind[i]
        if entry_kind == _KIND_SCALAR:
            trace.append(
                ScalarBlock(count=a[i], loads=b[i], stores=c[i], note=notes.get(i, ""))
            )
            continue
        op = _OPCODES[opcode[i]]
        if entry_kind == _KIND_CONFIG:
            trace.append(ConfigInstruction(op, operand_a=a[i], operand_b=b[i]))
        elif entry_kind == _KIND_MOVE:
            trace.append(
                MoveInstruction(
                    op,
                    dtype=_DTYPES[dtype_col[i]],
                    dest=a[i],
                    src=b[i],
                    src_dtype=None if src_dtype[i] < 0 else _DTYPES[src_dtype[i]],
                )
            )
        elif entry_kind == _KIND_MEMORY:
            trace.append(
                MemoryInstruction(
                    op,
                    dtype=_DTYPES[dtype_col[i]],
                    register=a[i],
                    base_address=base_address[i],
                    stride_modes=var["stride_modes"][i],
                    is_store=bool(flags[i] & _FLAG_STORE),
                    is_random=bool(flags[i] & _FLAG_RANDOM),
                    random_bases=var["random_bases"][i],
                    resolved_strides=var["strides"][i],
                    shape_lengths=var["shape"][i],
                    mask=masks[i],
                    is_spill=bool(flags[i] & _FLAG_SPILL),
                )
            )
        elif entry_kind == _KIND_ARITH:
            trace.append(
                ArithmeticInstruction(
                    op,
                    dtype=_DTYPES[dtype_col[i]],
                    dest=a[i],
                    sources=var["sources"][i],
                    immediate=immediate[i] if flags[i] & _FLAG_IMMEDIATE else None,
                    shape_lengths=var["shape"][i],
                    mask=masks[i],
                )
            )
        else:
            raise ValueError(f"unknown trace entry kind {entry_kind}")
    return trace
