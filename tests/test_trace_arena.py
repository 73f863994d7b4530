"""Zero-copy trace plane suite: arena roundtrip, degradation, pool lifetime.

Pins the tentpole contracts of :mod:`repro.core.trace_arena` and the
persistent :class:`~repro.experiments.adapters.LocalPoolAdapter`:

* publish/attach reconstructs the exact entry list, over read-only views,
  for every distinct trace spec of every registered experiment -- and
  replay is a deterministic function of that entry list, which is what
  makes ``REPRO_SHM_TRACE=0`` vs the default bit-identical by
  construction (the pooled end-to-end tests below also check the actual
  ``SimulationResult`` dicts),
* segments are refcount-unlinked per batch and swept on ``close()`` --
  nothing named ``repro-arena-*`` outlives an engine,
* ``REPRO_SHM_TRACE=0`` degrades silently; an ``OSError`` at segment
  creation degrades with exactly one ``RuntimeWarning`` -- both
  bit-identical to the arena path,
* a pool whose workers are SIGKILLed is recreated once and finishes the
  batch, leaking no segments,
* the pool persists across batches (``pool_reuses``) and the worker-side
  attach LRU returns the *same list object*, keeping the identity-keyed
  compile memo warm.
"""

import dataclasses
import os
import pickle
import signal
import warnings

import pytest

import repro.core.trace_arena as ta
from repro.compiler.pipeline import compile_cache_info, compile_trace_cached
from repro.core.cache import ResultStore
from repro.core.traces import TraceSpec
from repro.experiments.adapters import LocalPoolAdapter
from repro.experiments.registry import all_experiments
from repro.experiments.sweep import KernelJob, ParallelSweepEngine


@pytest.fixture(autouse=True)
def _fresh_worker_cache():
    """Each test sees an empty parent-process attach LRU (worker processes
    fork with whatever the parent holds, so a stale entry from an earlier
    test could mask a broken attach path)."""
    ta._worker_traces.clear()
    yield
    ta._worker_traces.clear()


@pytest.fixture(scope="module")
def csum_trace():
    return TraceSpec("csum", "mve", 0.25).capture().trace


def assert_no_shm_leaks():
    assert not ta.live_segments()
    shm_dir = os.path.join(os.sep, "dev", "shm")
    if os.path.isdir(shm_dir):
        leaked = [n for n in os.listdir(shm_dir) if n.startswith(ta.ARENA_PREFIX)]
        assert not leaked, f"leaked trace-arena segments: {leaked}"


class TestTraceArena:
    """Parent-side publish/refcount lifecycle and worker-side attach."""

    def test_publish_attach_roundtrip(self, csum_trace):
        arena = ta.TraceArena()
        try:
            handle = arena.publish("spec-a", csum_trace)
            assert handle is not None
            assert handle.entries == len(csum_trace)
            assert ta.live_segments() == [handle.segment]
            assert ta.attached_trace(handle) == csum_trace
        finally:
            arena.close()
        assert_no_shm_leaks()

    def test_handles_ship_small(self, csum_trace):
        """The whole point: tasks pickle a handle, not the trace."""
        arena = ta.TraceArena()
        try:
            handle = arena.publish("spec-a", csum_trace)
            assert len(pickle.dumps(handle)) < len(pickle.dumps(csum_trace)) / 10
        finally:
            arena.close()

    def test_publish_is_memoized_per_spec(self, csum_trace):
        arena = ta.TraceArena()
        try:
            first = arena.publish("spec-a", csum_trace)
            assert arena.publish("spec-a", csum_trace) is first
            assert arena.published == 1
        finally:
            arena.close()

    def test_refcount_unlinks_on_last_release(self, csum_trace):
        arena = ta.TraceArena()
        try:
            handle = arena.publish("spec-a", csum_trace)
            arena.retain("spec-a")
            arena.retain("spec-a")
            arena.release("spec-a")
            assert ta.live_segments() == [handle.segment]
            arena.release("spec-a")
            assert not ta.live_segments()
            # The handle is dropped with the segment, so a retry after a
            # pool recreation republishes instead of shipping a dangling
            # segment name.
            again = arena.publish("spec-a", csum_trace)
            assert again is not None and again.segment != handle.segment
            assert arena.published == 2
        finally:
            arena.close()
        assert_no_shm_leaks()

    def test_worker_views_are_readonly(self, csum_trace, monkeypatch):
        """Attach decodes over a read-only memoryview: no worker can
        scribble on a segment another worker is decoding."""
        seen = {}
        real = ta.entries_from_columns

        def spying(columns, n, notes=()):
            seen["writable"] = [v.flags.writeable for v in columns.values()]
            return real(columns, n, notes)

        monkeypatch.setattr(ta, "entries_from_columns", spying)
        arena = ta.TraceArena()
        try:
            ta.attached_trace(arena.publish("spec-a", csum_trace))
        finally:
            arena.close()
        assert seen["writable"] and not any(seen["writable"])

    def test_attach_lru_returns_same_object_and_keeps_compile_memo_warm(
        self, csum_trace
    ):
        arena = ta.TraceArena()
        try:
            handle = arena.publish("spec-a", csum_trace)
            first = ta.attached_trace(handle)
            assert ta.attached_trace(handle) is first
            assert ta.attached_trace_cache_len() == 1
            compiled = compile_trace_cached(first)
            before = compile_cache_info()["hits"]
            assert compile_trace_cached(ta.attached_trace(handle)) is compiled
            assert compile_cache_info()["hits"] == before + 1
        finally:
            arena.close()
        assert_no_shm_leaks()

    @pytest.mark.parametrize("corruption", ["header-json", "header-length", "entry-count"])
    def test_corrupt_segment_raises_the_decode_error(self, csum_trace, corruption):
        """A segment that fails to decode surfaces its ValueError (not an
        error from the cleanup path) and leaves the segment closable."""
        arena = ta.TraceArena()
        try:
            handle = arena.publish("spec-a", csum_trace)
            buf = ta._live_segments[handle.segment].buf
            if corruption == "header-json":
                buf[4:8] = b"!!!!"
            elif corruption == "header-length":
                buf[0:4] = (1 << 24).to_bytes(4, "little")
            else:
                handle = dataclasses.replace(handle, entries=handle.entries + 1)
            with pytest.raises(ValueError):
                ta.attached_trace(handle)
            assert ta.attached_trace_cache_len() == 0
        finally:
            arena.close()
        assert_no_shm_leaks()

    def test_oserror_marks_arena_dead(self, csum_trace, monkeypatch):
        class Raising:
            def SharedMemory(self, *args, **kwargs):
                raise OSError("no /dev/shm")

        monkeypatch.setattr(ta, "shared_memory", Raising())
        arena = ta.TraceArena()
        assert arena.publish("spec-a", csum_trace) is None
        assert arena.dead
        assert arena.publish("spec-b", csum_trace) is None
        assert arena.published == 0
        assert_no_shm_leaks()

    def test_env_escape_hatch_disables_arena(self, csum_trace, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_TRACE", "0")
        assert not ta.arena_enabled()
        arena = ta.TraceArena()
        assert arena.dead
        assert arena.publish("spec-a", csum_trace) is None
        assert_no_shm_leaks()


def pool_jobs():
    """Two kernels x two schemes: two resolved trace groups, so the pool
    path (which requires more than one task) always engages."""
    return [
        KernelJob(kernel=kernel, scale=0.25, scheme_name=scheme)
        for kernel in ("csum", "gemm")
        for scheme in ("bit-serial", "bit-parallel")
    ]


def warm_traces_only(store_root, jobs):
    """Capture once serially, then drop the results but keep the trace
    payloads: the pooled engine under test must replay (results cold)
    from stored captures (traces warm)."""
    ParallelSweepEngine(jobs=1, store=ResultStore(store_root)).run_jobs(jobs)
    trace_keys = {job.trace_spec().cache_key() for job in jobs}
    for path in store_root.glob("*/*.json"):
        if path.stem not in trace_keys:
            path.unlink()


def outcome_map(outcomes):
    return {
        job.cache_key(): (out.result.to_dict(), out.spills)
        for job, out in outcomes.items()
    }


@pytest.fixture(scope="module")
def serial_expected():
    """Ground truth for the pooled equivalence tests, computed in-process."""
    engine = ParallelSweepEngine(jobs=1)
    return outcome_map(engine.run_jobs(pool_jobs()))


def run_pooled(tmp_path, jobs=2):
    """A pooled engine over a warm-trace store; returns (engine, outcomes)."""
    warm_traces_only(tmp_path, pool_jobs())
    engine = ParallelSweepEngine(jobs=jobs, store=ResultStore(tmp_path))
    outcomes = engine.run_jobs(pool_jobs())
    return engine, outcomes


class TestPoolEquivalence:
    """End-to-end: every shipping mode produces bit-identical results."""

    def test_arena_path_matches_serial(self, tmp_path, serial_expected):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            engine, outcomes = run_pooled(tmp_path)
        engine.close()
        assert outcome_map(outcomes) == serial_expected
        # Exactly one publish per distinct resolved trace.
        specs = {job.trace_spec() for job in pool_jobs()}
        assert engine.arena_publishes == {spec: 1 for spec in specs}
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert_no_shm_leaks()

    def test_env_escape_hatch_is_silent_and_identical(
        self, tmp_path, serial_expected, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SHM_TRACE", "0")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            engine, outcomes = run_pooled(tmp_path)
        engine.close()
        assert outcome_map(outcomes) == serial_expected
        assert engine.arena_publishes == {}
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert_no_shm_leaks()

    def test_shm_oserror_degrades_with_one_warning(
        self, tmp_path, serial_expected, monkeypatch
    ):
        class Raising:
            def SharedMemory(self, *args, **kwargs):
                raise OSError("shm creation blocked")

        monkeypatch.setattr(ta, "shared_memory", Raising())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            engine, outcomes = run_pooled(tmp_path)
        engine.close()
        assert outcome_map(outcomes) == serial_expected
        assert engine.arena_publishes == {}
        degraded = [
            w
            for w in caught
            if issubclass(w.category, RuntimeWarning)
            and "trace arena unavailable" in str(w.message)
        ]
        assert len(degraded) == 1
        assert_no_shm_leaks()

    def test_killed_pool_workers_mid_run_recover(self, tmp_path, serial_expected):
        warm_traces_only(tmp_path, pool_jobs())
        adapter = LocalPoolAdapter(jobs=2)
        engine = ParallelSweepEngine(store=ResultStore(tmp_path), adapter=adapter)
        try:
            # First batch brings the persistent pool up.
            first: dict = {}
            engine.stream_jobs(
                pool_jobs(), on_result=lambda job, out, *_: first.__setitem__(job, out)
            )
            assert outcome_map(first) == serial_expected
            pool = adapter._pool
            assert pool is not None
            for pid in list(pool._processes):
                os.kill(pid, signal.SIGKILL)
            # Results persisted in the first batch would short-circuit the
            # second; make it cold again (traces stay warm).
            warm_traces_only(tmp_path, pool_jobs())
            engine._trace_store_hit_specs.clear()
            second: dict = {}
            engine.stream_jobs(
                pool_jobs(), on_result=lambda job, out, *_: second.__setitem__(job, out)
            )
            assert outcome_map(second) == serial_expected
            # The broken pool was recreated, not limped along or leaked.
            assert adapter._pool is not None and adapter._pool is not pool
        finally:
            engine.close()
        assert adapter._pool is None
        assert_no_shm_leaks()


class TestPersistentPool:
    """The pool outlives batches and closes with the engine."""

    def test_pool_survives_batches_and_counts_reuse(self, tmp_path, serial_expected):
        warm_traces_only(tmp_path, pool_jobs())
        adapter = LocalPoolAdapter(jobs=2)
        with ParallelSweepEngine(store=ResultStore(tmp_path), adapter=adapter) as engine:
            collected: dict = {}
            engine.stream_jobs(
                pool_jobs(),
                on_result=lambda job, out, *_: collected.__setitem__(job, out),
            )
            assert outcome_map(collected) == serial_expected
            pool = adapter._pool
            assert pool is not None and engine.pool_reuses == 0
            warm_traces_only(tmp_path, pool_jobs())
            engine.stream_jobs(pool_jobs(), on_result=lambda *args: None)
            # Same pool object, counted as a reuse; each batch republishes
            # every resolved trace exactly once (segments are per-batch).
            assert adapter._pool is pool
            assert engine.pool_reuses >= 1
            specs = {job.trace_spec() for job in pool_jobs()}
            assert engine.arena_publishes == {spec: 2 for spec in specs}
        assert adapter._pool is None
        assert_no_shm_leaks()

    def test_nonpersistent_adapter_restores_pool_per_batch(
        self, tmp_path, serial_expected
    ):
        warm_traces_only(tmp_path, pool_jobs())
        adapter = LocalPoolAdapter(jobs=2, persistent=False)
        engine = ParallelSweepEngine(store=ResultStore(tmp_path), adapter=adapter)
        collected: dict = {}
        engine.stream_jobs(
            pool_jobs(), on_result=lambda job, out, *_: collected.__setitem__(job, out)
        )
        assert outcome_map(collected) == serial_expected
        assert adapter._pool is None
        assert_no_shm_leaks()


class TestAllExperimentSpecRoundtrip:
    """Acceptance: over the deduped job sets of all registered experiments,
    the arena path is bit-identical to pickled shipping.  Replay consumes
    nothing but the entry list, so exact entry reconstruction for every
    distinct spec *is* the bit-identity argument; the pooled end-to-end
    tests above pin the actual result dicts on both paths."""

    def test_every_spec_survives_the_arena(self):
        experiments = all_experiments()
        assert len(experiments) == 11
        jobs = []
        for experiment in experiments:
            jobs.extend(experiment.jobs())
        specs = list(dict.fromkeys(job.trace_spec() for job in dict.fromkeys(jobs)))
        assert len(specs) >= 11
        arena = ta.TraceArena()
        try:
            for spec in specs:
                trace = spec.capture().trace
                handle = arena.publish(spec.cache_key(), trace)
                assert handle is not None, spec
                assert ta.attached_trace(handle) == trace, spec
                # Unlink as batch completion would: capture memory stays
                # bounded by one trace over the whole sweep.
                arena.retain(handle.spec_key)
                arena.release(handle.spec_key)
        finally:
            arena.close()
        assert arena.published == len(specs)
        assert_no_shm_leaks()
