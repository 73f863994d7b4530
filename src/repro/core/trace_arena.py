"""Shared-memory trace arena: zero-copy trace shipping for the local pool.

The staged sweep's dominant distribution overhead used to be trace
*shipping*: every partition task submitted to the process pool pickled the
full decoded trace (thousands of small dataclasses) or its compressed
base64 envelope, and every worker re-materialized it per task.  The arena
replaces that with POSIX shared memory:

* the sweep parent **publishes** each resolved trace's columnar arrays
  (:func:`repro.isa.trace_io.trace_columns`) into one
  ``multiprocessing.shared_memory`` segment, exactly once per batch, in
  the self-describing flat buffer of :func:`repro.isa.trace_io.pack_trace`
  (the same buffer the trace codec compresses);
* tasks ship only a tiny :class:`TraceHandle` -- segment name, spec key,
  entry count and the sparse scalar notes;
* workers **attach** zero-copy read-only ``np.frombuffer`` views over the
  segment and rebuild the exact entry list via
  :func:`~repro.isa.trace_io.entries_from_columns` -- once per worker per
  spec, not once per task: the reconstructed list is kept in a per-process
  spec-keyed LRU (:func:`attached_trace`), so repeated partitions over the
  same trace skip even the attach.  Returning the *same list object* also
  keeps the identity-keyed compile memo
  (:func:`repro.compiler.pipeline.compile_trace_cached`) warm across
  batches on a persistent pool.

Traces are immutable post-capture; the worker views are taken over a
read-only memoryview so nothing can scribble on a segment another worker
is decoding.  Lifetime is parent-owned: segments are refcounted per
in-flight task and unlinked as soon as their count drains (plus a
``close()`` in the adapter's ``finally`` and a module ``atexit`` sweep),
so no ``repro-arena-*`` segment outlives the engine even on a crash.
Resource-tracker bookkeeping stays balanced by construction: the parent
and its forked workers share one tracker whose per-name cache is a set,
worker attaches re-register names the parent already registered (a
dedup), and the parent's ``unlink`` performs the single unregister -- so
the tracker emits no spurious leak warnings yet still unlinks segments if
the parent is SIGKILLed before its ``atexit`` sweep can run.

``REPRO_SHM_TRACE=0`` disables the arena; any ``OSError`` at segment
creation (no ``/dev/shm``, size limits, sandboxing) degrades to the
existing pickled-trace path with a single :class:`RuntimeWarning` -- the
same one-warning contract the remote cache tier uses -- and results are
bit-identical either way because both paths feed the identical entry list
to the identical replay.
"""

from __future__ import annotations

import atexit
import os
import secrets
import traceback
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Optional, Sequence

import numpy as np

from ..isa.instructions import TraceEntry
from ..isa.trace_io import entries_from_columns, pack_trace, scalar_notes, unpack_columns

__all__ = [
    "ARENA_PREFIX",
    "TraceArena",
    "TraceHandle",
    "arena_enabled",
    "attached_trace",
    "attached_trace_cache_len",
    "live_segments",
]

#: every arena segment name starts with this; the leak guards key on it
ARENA_PREFIX = "repro-arena-"


def arena_enabled() -> bool:
    """Whether the shared-memory trace plane is on (``REPRO_SHM_TRACE``,
    default on; ``0`` restores the pickled-trace shipping path)."""
    return os.environ.get("REPRO_SHM_TRACE", "1") != "0"


@dataclass(frozen=True)
class TraceHandle:
    """Everything a worker needs to rebuild one published trace.

    A handle is what actually travels through ``pool.submit`` -- a few
    hundred bytes no matter how large the trace -- and doubles as the
    worker-side memo key (``spec_key``)."""

    segment: str
    spec_key: str
    entries: int
    notes: tuple = ()


# ---------------------------------------------------------------------- #
#  Parent side: publish + refcounted unlink
# ---------------------------------------------------------------------- #

#: segments created by this process and not yet unlinked; the atexit sweep
#: below is the last line of defence for crash/exception paths
_live_segments: dict[str, shared_memory.SharedMemory] = {}


def live_segments() -> list[str]:
    """Names of arena segments this process currently owns (diagnostics
    and the leak-guard fixtures)."""
    return sorted(_live_segments)


def _unlink_segment(name: str) -> None:
    segment = _live_segments.pop(name, None)
    if segment is None:
        return
    try:
        segment.close()
    except (OSError, BufferError):
        pass
    try:
        segment.unlink()
    except (FileNotFoundError, OSError):
        pass


@atexit.register
def _sweep_live_segments() -> None:
    for name in list(_live_segments):
        _unlink_segment(name)


#: packed buffers of recently published traces, by trace identity.  Traces
#: are immutable post-capture, so republishing the same list object (every
#: batch after the first on a persistent pool) reuses its buffer instead of
#: rebuilding the columns.  Each entry holds its trace, so an id cannot be
#: recycled while cached; sized like the worker-side LRU below.
_PACKED_TRACE_CAPACITY = 32
_packed_traces: "OrderedDict[int, tuple[Sequence[TraceEntry], np.ndarray]]" = OrderedDict()


def _packed_trace(trace: Sequence[TraceEntry]) -> np.ndarray:
    cached = _packed_traces.get(id(trace))
    if cached is not None:
        _packed_traces.move_to_end(id(trace))
        return cached[1]
    packed = pack_trace(trace)
    _packed_traces[id(trace)] = (trace, packed)
    while len(_packed_traces) > _PACKED_TRACE_CAPACITY:
        _packed_traces.popitem(last=False)
    return packed


class TraceArena:
    """One batch's published traces, parent-owned.

    ``publish`` lays a trace's columns into a fresh segment (memoized per
    spec key, so N partition tasks over one trace share one publish);
    ``retain``/``release`` refcount in-flight tasks per spec and unlink a
    segment the moment its last task completes; ``close`` sweeps whatever
    is left -- the adapter calls it in a ``finally`` so a crashed batch
    cannot leak.  After an ``OSError`` the arena marks itself ``dead`` and
    every further ``publish`` returns None, letting the caller fall back
    to pickled shipping for the rest of the batch with one warning.
    """

    def __init__(self) -> None:
        self._handles: dict[str, TraceHandle] = {}
        self._refs: dict[str, int] = {}
        self.dead = not arena_enabled()
        #: segments this arena created over its lifetime (monotonic)
        self.published = 0

    def publish(
        self, spec_key: str, trace: Sequence[TraceEntry]
    ) -> Optional[TraceHandle]:
        """Publish ``trace`` once and return its handle (None = degrade)."""
        if self.dead:
            return None
        handle = self._handles.get(spec_key)
        if handle is not None:
            return handle
        packed = _packed_trace(trace)
        segment_name = ARENA_PREFIX + secrets.token_hex(8)
        try:
            segment = shared_memory.SharedMemory(
                create=True, size=packed.nbytes, name=segment_name
            )
        except OSError:
            self.dead = True
            return None
        _live_segments[segment_name] = segment
        segment.buf[:packed.nbytes] = packed
        handle = TraceHandle(
            segment=segment_name,
            spec_key=spec_key,
            entries=len(trace),
            notes=tuple(tuple(pair) for pair in scalar_notes(trace)),
        )
        self._handles[spec_key] = handle
        self._refs[spec_key] = 0
        self.published += 1
        return handle

    def retain(self, spec_key: str) -> None:
        """One more in-flight task references this spec's segment."""
        if spec_key in self._refs:
            self._refs[spec_key] += 1

    def release(self, spec_key: str) -> None:
        """A task referencing this spec's segment completed; unlink on the
        last one.  Dropping the handle too means a pool-recreation retry
        republishes instead of shipping a dangling segment name."""
        count = self._refs.get(spec_key)
        if count is None:
            return
        count -= 1
        self._refs[spec_key] = count
        if count <= 0:
            handle = self._handles.pop(spec_key, None)
            self._refs.pop(spec_key, None)
            if handle is not None:
                _unlink_segment(handle.segment)

    def close(self) -> None:
        """Unlink every remaining segment (batch completion / error path)."""
        for handle in self._handles.values():
            _unlink_segment(handle.segment)
        self._handles.clear()
        self._refs.clear()


# ---------------------------------------------------------------------- #
#  Worker side: attach + per-process decoded-trace LRU
# ---------------------------------------------------------------------- #

#: decoded traces this worker process has already attached, by spec key.
#: Mirrors the engine's parent-side trace memo; sized by the same logic
#: (a worker rarely sees more live traces than the parent memoizes).
_WORKER_TRACE_CAPACITY = 32
_worker_traces: "OrderedDict[str, list[TraceEntry]]" = OrderedDict()


def attached_trace_cache_len() -> int:
    """How many decoded traces this process's attach LRU holds (tests)."""
    return len(_worker_traces)


def _decode_segment(segment: shared_memory.SharedMemory, handle: TraceHandle):
    # A read-only view of the whole segment: every column view inherits
    # non-writability, enforcing post-capture trace immutability.
    buffer = memoryview(segment.buf).toreadonly()
    try:
        # entries_from_columns copies everything out, so the column views
        # die with this call and the buffer can be released before close().
        return entries_from_columns(unpack_columns(buffer), handle.entries, handle.notes)
    except Exception as error:
        # A failed decode's traceback frames still hold column views; clear
        # them so the segment can close and the decode error surfaces.
        traceback.clear_frames(error.__traceback__)
        raise
    finally:
        buffer.release()


def attached_trace(handle: TraceHandle) -> list[TraceEntry]:
    """The entry list for a published trace: LRU first, then attach.

    Returns the same list object for repeated lookups of one spec, which
    is what keeps the identity-keyed compile memo warm across partitions
    and batches inside one persistent pool worker."""
    trace = _worker_traces.get(handle.spec_key)
    if trace is not None:
        _worker_traces.move_to_end(handle.spec_key)
        return trace
    # Attaching re-registers the name with the (shared, fork-inherited)
    # resource tracker; that is a set-add dedup of the parent's own
    # registration, and the parent's unlink performs the one unregister.
    segment = shared_memory.SharedMemory(name=handle.segment)
    try:
        trace = _decode_segment(segment, handle)
    finally:
        segment.close()
    _worker_traces[handle.spec_key] = trace
    _worker_traces.move_to_end(handle.spec_key)
    while len(_worker_traces) > _WORKER_TRACE_CAPACITY:
        _worker_traces.popitem(last=False)
    return trace
