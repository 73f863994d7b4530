"""Span recorder for the traced benchmark run.

The traced run wraps the public entry points of each layer of the program
and records one span per call: name, start, end, parent span and pass id.
Wrappers are installed from here, never inside ``src/``: a function is
replaced under *every* name its callers look it up by (``from ... import``
copies the binding into the caller's module, so e.g.
``repro.experiments.sweep.decode_trace`` and
``repro.core.simulator.compile_trace_cached`` are wrapped alongside the
defining modules), and a method is replaced on its class.  Untraced runs
never call :meth:`SpanRecorder.install`, so they run the program untouched.

Spans stay in memory and are written out once, when the run ends.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import threading
import time
from pathlib import Path


class Span:
    __slots__ = ("name", "start", "end", "parent", "pass_id", "thread", "info", "child_ns")

    def __init__(self, name, start, parent, pass_id, thread):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.pass_id = pass_id
        self.thread = thread
        self.info = None
        #: nanoseconds covered by direct children (they nest, so they never overlap)
        self.child_ns = 0

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9

    @property
    def self_seconds(self) -> float:
        return (self.end - self.start - self.child_ns) / 1e9


def _entries(args, kwargs, result):
    return len(result)


def _encoded_bytes(args, kwargs, result):
    from repro.isa.trace_io import trace_payload_bytes

    return trace_payload_bytes(result)


def _hit(args, kwargs, result):
    return result is not None


def _replayed_configs(args, kwargs, result):
    return len(result)


def _request_id(args, kwargs, result):
    return args[0].headers.get("X-Bench-Id")


#: (span name, "module:attribute" or "module:Class.method", annotation) --
#: the layer boundaries the traced run measures.  The annotation turns a
#: call's arguments/result into the one number its layer metric needs.
TARGETS = (
    ("capture", "repro.workloads.base:Kernel.capture", _entries),
    ("trace_io.encode", "repro.isa.trace_io:encode_trace", _encoded_bytes),
    ("trace_io.decode", "repro.isa.trace_io:decode_trace", None),
    ("store.load", "repro.core.store_backend:LocalDirBackend.load", _hit),
    ("store.store", "repro.core.store_backend:LocalDirBackend.store", None),
    ("compile", "repro.compiler.pipeline:compile_trace_cached", None),
    ("replay.single", "repro.core.simulator:simulate_trace", None),
    ("replay.batch", "repro.core.replay:simulate_trace_batch", _replayed_configs),
    ("memory.block_access", "repro.memory.vector_cache:VectorCacheHierarchy.vector_block_access", None),
    ("baselines", "repro.baselines.neon:NeonModel.run", None),
    ("baselines", "repro.baselines.gpu:GPUModel.run", None),
    ("assemble", "repro.experiments.tables:run_tables", None),
    ("assemble", "repro.experiments.figure7:run_figure7", None),
    ("assemble", "repro.experiments.figure8:run_figure8", None),
    ("assemble", "repro.experiments.figure9:run_figure9", None),
    ("assemble", "repro.experiments.figure13:run_figure13", None),
    ("pool.execute", "repro.experiments.adapters:LocalPoolAdapter.execute", None),
    ("arena.publish", "repro.core.trace_arena:TraceArena.publish", None),
    ("export.render", "repro.experiments.export:render_payload", None),
    ("http.handle", "repro.core.cache_service:CacheRequestHandler.do_GET", _request_id),
)


class SpanRecorder:
    """In-memory spans of one run; thread-aware (each thread nests its own)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = None
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, function, annotate=None):
        recorder = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            span = Span(
                name,
                time.perf_counter_ns(),
                stack[-1] if stack else None,
                recorder.pass_id,
                threading.get_ident(),
            )
            recorder.spans.append(span)
            stack.append(span)
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_ns += span.end - span.start
            if annotate is not None:
                span.info = annotate(args, kwargs, result)
            return result

        return traced

    # -- installation --------------------------------------------------- #

    def install(self, targets=TARGETS) -> None:
        """Wrap every target under every name the program binds it to."""
        for name, target, annotate in targets:
            module_name, _, attribute = target.partition(":")
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                self._patch(owner, method, self.wrap(name, owner.__dict__[method], annotate))
                continue
            original = getattr(module, attribute)
            wrapper = self.wrap(name, original, annotate)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded is None or not (loaded_name == "repro" or loaded_name.startswith("repro.")):
                    continue
                for binding, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, binding, wrapper)

    def _patch(self, owner, attribute, replacement) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- output ---------------------------------------------------------- #

    def write(self, path: Path) -> None:
        """All spans as JSON lines: index, name, start/end ns, parent index,
        pass id, thread and annotation."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for i, span in enumerate(self.spans):
                parent = index.get(id(span.parent)) if span.parent is not None else None
                out.write(
                    json.dumps(
                        [i, span.name, span.start, span.end, parent, span.pass_id, span.thread, span.info]
                    )
                    + "\n"
                )


def _union_seconds(intervals, lo, hi) -> float:
    """Length of the union of [start, end) intervals clipped to [lo, hi)."""
    covered = 0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered / 1e9


def layer_metrics(recorder: SpanRecorder, windows: dict) -> dict:
    """Per-pass layer figures from the spans of the traced passes.

    ``windows`` maps each traced pass id to its (start_ns, end_ns).  Times
    and counts are means per pass; ratios are over all traced passes.
    """
    passes = max(1, len(windows))
    spans = [span for span in recorder.spans if span.pass_id in windows]
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def calls(name):
        return len(by_name.get(name, ())) / passes

    def seconds(name):
        return sum(span.seconds for span in by_name.get(name, ())) / passes

    def info_sum(name):
        return sum(span.info or 0 for span in by_name.get(name, ())) / passes

    loads = by_name.get("store.load", [])
    batches = by_name.get("replay.batch", [])
    metrics = {
        "capture.calls": calls("capture"),
        "capture.s": seconds("capture"),
        "capture.entries": info_sum("capture"),
        "trace_io.encode.s": seconds("trace_io.encode"),
        "trace_io.encode.bytes": info_sum("trace_io.encode"),
        "trace_io.decode.calls": calls("trace_io.decode"),
        "trace_io.decode.s": seconds("trace_io.decode"),
        "store.load.calls": calls("store.load"),
        "store.load.s": seconds("store.load"),
        "store.store.calls": calls("store.store"),
        "store.store.s": seconds("store.store"),
        "store.hit_ratio": sum(1 for span in loads if span.info) / len(loads) if loads else 0.0,
        "compile.calls": calls("compile"),
        "compile.s": seconds("compile"),
        "replay.single.calls": calls("replay.single"),
        "replay.single.s": seconds("replay.single"),
        "replay.batch.calls": calls("replay.batch"),
        "replay.batch.s": seconds("replay.batch"),
        "replay.batch.configs_per_call": (
            sum(span.info for span in batches) / len(batches) if batches else 0.0
        ),
        "memory.block_access.calls": calls("memory.block_access"),
        "memory.block_access.s": seconds("memory.block_access"),
        "baselines.calls": calls("baselines"),
        "baselines.s": seconds("baselines"),
        "assemble.s": seconds("assemble"),
        "assemble.self_s": sum(span.self_seconds for span in by_name.get("assemble", ())) / passes,
        "pool.execute.s": seconds("pool.execute"),
        "arena.publish.s": seconds("arena.publish"),
        "export.render.calls": calls("export.render"),
        "export.render.s": seconds("export.render"),
    }
    residual = 0.0
    for pass_id, (lo, hi) in windows.items():
        roots = [
            (span.start, span.end)
            for span in spans
            if span.pass_id == pass_id and span.parent is None
        ]
        residual += (hi - lo) / 1e9 - _union_seconds(roots, lo, hi)
    metrics["trace.residual_s"] = residual / passes
    return metrics


def http_split(recorder: SpanRecorder, requests) -> tuple[float, float]:
    """Median handler time and median wait (client latency minus handler
    time) in ms over full-body reads; ``requests`` holds the client-side
    records of the traced passes."""
    handled = {
        span.info: span.seconds
        for span in recorder.spans
        if span.name == "http.handle" and span.info is not None
    }
    handle, wait = [], []
    for record in requests:
        seconds = handled.get(record.request_id)
        if record.kind in ("json", "csv") and seconds is not None:
            handle.append(seconds * 1e3)
            wait.append((record.latency_s - seconds) * 1e3)
    if not handle:
        return 0.0, 0.0
    return statistics.median(handle), statistics.median(wait)
