"""Staged trace pipeline regression suite.

Guards the capture-once/replay-many contract end to end:

* the columnar codec round-trips traces exactly (including random-access
  bases, dimension masks, ``None`` immediates and scalar-block notes),
* capture with ``record_values=False`` (the timing path's default) emits
  the identical instruction stream -- and therefore bit-identical
  ``SimulationResult``s -- as a value-recording run,
* a cold multi-config sweep captures each distinct (kernel, kind, kwargs,
  simd_lanes) trace exactly once, locally and under a worker pool, and
  reuses stored captures across engines, and
* grouped capture+replay reproduces the legacy fused per-job path
  bit-for-bit across the job sets of every registered experiment (the
  checked-in goldens must never need regeneration for this refactor).
"""

import json

import pytest

from repro.compiler.pipeline import compile_trace
from repro.core.cache import ResultStore
from repro.core.simulator import simulate_kernel, simulate_trace
from repro.core.traces import TraceArtifact, TraceSpec, TraceStore
from repro.experiments.figure8 import figure8_sweep_spec
from repro.experiments.registry import all_experiments
from repro.experiments.sweep import (
    KernelJob,
    ParallelSweepEngine,
    SweepSpec,
    execute_job,
)
from repro.isa.instructions import ScalarBlock
from repro.isa.trace_io import (
    decode_trace,
    encode_trace,
    trace_columnar_bytes,
    trace_columns,
    trace_payload_bytes,
)
from repro.sram.schemes import SCHEME_NAMES, get_scheme
from repro.workloads import get_kernel_class

#: spans 1D/2D/3D kernels, strided and random (pointer-table) access, the
#: RVV lowering and dimension-masked reductions
CODEC_SPECS = [
    TraceSpec("csum", "mve", 0.25),
    TraceSpec("csum", "rvv", 0.25),
    TraceSpec("gemm", "mve", 0.25),
    TraceSpec("spmm", "mve", 0.25),
    TraceSpec("dct", "mve", 0.125),
    TraceSpec("png_filter_up", "mve", 0.25),
]


def spec_id(spec: TraceSpec) -> str:
    return f"{spec.kernel}-{spec.kind}"


def legacy_fused(job: KernelJob):
    """The seed pipeline, verbatim: build the kernel, trace it with full
    value recording, compile and simulate in one fused step."""
    kernel = get_kernel_class(job.kernel)(scale=job.scale, **dict(job.kwargs))
    if job.kind == "rvv":
        trace = kernel.trace_rvv(simd_lanes=job.config.simd_lanes)
    else:
        trace = kernel.trace_mve(simd_lanes=job.config.simd_lanes)
    result, compiled = simulate_kernel(
        trace, config=job.config, scheme=get_scheme(job.scheme_name)
    )
    return result, compiled.spill_count


class TestColumnarCodec:
    @pytest.mark.parametrize("spec", CODEC_SPECS, ids=spec_id)
    def test_roundtrip_is_exact(self, spec):
        trace = spec.capture().trace
        payload = encode_trace(trace)
        json.dumps(payload)  # must survive the JSON-only HTTP cache tier
        assert decode_trace(payload) == trace

    def test_roundtrip_survives_compiled_traces(self):
        """Spill instructions (is_spill, compiler-injected vsetwidth) encode
        too, so compiled traces are also serializable."""
        compiled = compile_trace(TraceSpec("dct", "mve", 0.125).capture().trace).trace
        assert decode_trace(encode_trace(compiled)) == compiled

    def test_scalar_notes_and_immediates_survive(self):
        trace = TraceSpec("csum", "mve", 0.25).capture().trace
        trace = [ScalarBlock(count=5, loads=2, stores=1, note="tail loop")] + trace
        decoded = decode_trace(encode_trace(trace))
        assert decoded == trace
        assert decoded[0].note == "tail loop"

    def test_rejects_foreign_payloads(self):
        with pytest.raises(ValueError):
            decode_trace({"codec": "something-else", "entries": 0})

    @pytest.mark.parametrize(
        "spec, v1_payload_bytes, v1_columnar_bytes",
        [
            (TraceSpec("memcpy", "mve", 0.5), 4806, 134606),
            (TraceSpec("gemm", "mve", 0.5), 7716, 74114),
        ],
        ids=["memcpy", "gemm"],
    )
    def test_trace_bytes_at_most_a_third_of_v1(
        self, spec, v1_payload_bytes, v1_columnar_bytes
    ):
        """Deterministic size gate for packed masks: the v1 codec (one int
        per mask element, one npz member per column) needed the bytes
        pinned here; v2 must stay within a third of them."""
        trace = spec.capture().trace
        assert trace_payload_bytes(encode_trace(trace)) <= v1_payload_bytes // 3
        assert trace_columnar_bytes(trace_columns(trace)) <= v1_columnar_bytes // 3

    def test_artifact_payload_roundtrip(self, tmp_path):
        """The TraceStore record round-trips through an actual ResultStore."""
        spec = TraceSpec("spmm", "mve", 0.25)
        artifact = spec.capture()
        store = TraceStore(ResultStore(tmp_path))
        store.save(artifact)
        loaded = store.load(spec)
        assert loaded is not None
        assert loaded.trace == artifact.trace
        assert loaded.stats().as_dict() == artifact.stats().as_dict()

    @pytest.mark.parametrize("corruption", ["not-base64", "truncated-npz", "bitflip"])
    def test_corrupt_stored_payload_is_a_miss(self, tmp_path, corruption):
        """Corruption anywhere in the column data -- bad base64, a truncated
        archive (zipfile.BadZipFile territory), flipped bytes -- is a miss,
        never an exception escaping the store."""
        spec = TraceSpec("csum", "mve", 0.25)
        result_store = ResultStore(tmp_path)
        store = TraceStore(result_store)
        store.save(spec.capture())
        raw = json.loads(result_store._path(spec.cache_key()).read_text())
        blob = raw["trace"]["npz_b64"]
        if corruption == "not-base64":
            raw["trace"]["npz_b64"] = "@@@not-base64@@@"
        elif corruption == "truncated-npz":
            raw["trace"]["npz_b64"] = blob[: len(blob) // 2]
        else:
            import base64

            data = bytearray(base64.b64decode(blob))
            data[len(data) // 2] ^= 0xFF
            raw["trace"]["npz_b64"] = base64.b64encode(bytes(data)).decode()
        result_store._path(spec.cache_key()).write_text(json.dumps(raw))
        assert store.load(spec) is None

    def test_corrupt_stored_payload_degrades_to_recapture(self, tmp_path):
        """The engine recaptures (and heals the store entry) when a cached
        trace payload is corrupt, instead of failing the sweep."""
        store = ResultStore(tmp_path)
        job = KernelJob(kernel="csum", scale=0.25)
        ParallelSweepEngine(jobs=1, store=store).run_one(job)
        trace_path = store._path(job.trace_spec().cache_key())
        raw = json.loads(trace_path.read_text())
        raw["trace"]["npz_b64"] = raw["trace"]["npz_b64"][:40]
        trace_path.write_text(json.dumps(raw))
        # Results stay warm; force a replay by clearing the result record.
        store._path(job.cache_key()).unlink()

        engine = ParallelSweepEngine(jobs=1, store=store)
        outcome = engine.run_one(job)
        assert engine.traces_captured == 1  # recaptured, not crashed
        assert engine.trace_store_hits == 0  # a corrupt record is not a hit
        result, spills = legacy_fused(job)
        assert outcome.result.to_dict() == result.to_dict()


class TestRecordValuesParity:
    """Satellite: the timing path defaults to record_values=False capture;
    values are only needed for ``validate()``."""

    CASES = [
        ("csum", "mve", 0.25),
        ("csum", "rvv", 0.25),
        ("gemm", "mve", 0.25),
        ("spmm", "mve", 0.25),
        ("dct", "mve", 0.125),
    ]

    @pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-{c[1]}")
    def test_traces_and_results_bit_identical(self, case):
        name, kind, scale = case
        recording = get_kernel_class(name)(scale=scale).capture(kind, record_values=True)
        captured = get_kernel_class(name)(scale=scale).capture(kind, record_values=False)
        assert captured == recording

        with_values, _ = simulate_kernel(recording)
        without_values, _ = simulate_trace(captured)
        assert without_values.to_dict() == with_values.to_dict()

    def test_capture_default_skips_memory_traffic(self):
        """record_values=False must not write kernel outputs (that is what
        distinguishes capture from validate)."""
        import numpy as np

        kernel = get_kernel_class("csum")(scale=0.25)
        kernel.capture("mve")
        captured_output = np.array(kernel.output(), copy=True)
        assert not np.array_equal(captured_output, kernel.reference())
        assert kernel.validate()  # validate still records values


class TestCaptureCounting:
    """Acceptance: a cold multi-config sweep captures each distinct trace
    exactly once, and warm sweeps capture nothing."""

    def test_cold_figure8_sweep_captures_each_trace_once(self, tmp_path):
        jobs = figure8_sweep_spec().jobs()
        engine = ParallelSweepEngine(jobs=1, store=ResultStore(tmp_path))
        engine.run_jobs(jobs)
        distinct_specs = {job.trace_spec() for job in jobs}
        assert set(engine.trace_captures) == distinct_specs
        assert all(count == 1 for count in engine.trace_captures.values())

        warm = ParallelSweepEngine(jobs=1, store=ResultStore(tmp_path))
        warm.run_jobs(jobs)
        assert warm.computed == 0
        assert warm.traces_captured == 0

    def test_multi_config_group_shares_one_capture(self, tmp_path):
        """One kernel swept over every compute scheme: four timing runs,
        one capture, results identical to the fused path."""
        jobs = SweepSpec(
            name="schemes", kernels=[("gemm", {"scale": 0.25})], schemes=SCHEME_NAMES
        ).jobs()
        engine = ParallelSweepEngine(jobs=1, store=ResultStore(tmp_path))
        outcomes = engine.run_jobs(jobs)
        assert engine.computed == len(SCHEME_NAMES)
        assert engine.traces_captured == 1
        for job, outcome in outcomes.items():
            result, spills = legacy_fused(job)
            assert outcome.result.to_dict() == result.to_dict()
            assert outcome.spills == spills

    def test_parallel_pool_captures_once_per_group(self, tmp_path):
        jobs = SweepSpec(
            name="pooled",
            kernels=[("csum", {"scale": 0.25}), ("memcpy", {"scale": 0.25})],
            schemes=("bit-serial", "bit-parallel"),
        ).jobs()
        engine = ParallelSweepEngine(jobs=4, store=ResultStore(tmp_path))
        outcomes = engine.run_jobs(jobs)
        assert len(outcomes) == 4
        assert engine.traces_captured == 2  # one capture per kernel group
        assert all(count == 1 for count in engine.trace_captures.values())
        serial = ParallelSweepEngine(jobs=1).run_jobs(jobs)
        for job in jobs:
            assert outcomes[job].result.to_dict() == serial[job].result.to_dict()

    def test_stored_capture_answers_other_engines(self, tmp_path):
        """A trace captured for one scheme answers a different scheme's cold
        job from the store: no second functional-machine run."""
        store = ResultStore(tmp_path)
        first = ParallelSweepEngine(jobs=1, store=store)
        first.run_one(KernelJob(kernel="gemm", scale=0.25))
        assert first.traces_captured == 1

        second = ParallelSweepEngine(jobs=1, store=store)
        outcome = second.run_one(
            KernelJob(kernel="gemm", scale=0.25, scheme_name="bit-parallel")
        )
        assert second.traces_captured == 0
        assert second.trace_store_hits == 1
        result, spills = legacy_fused(
            KernelJob(kernel="gemm", scale=0.25, scheme_name="bit-parallel")
        )
        assert outcome.result.to_dict() == result.to_dict()
        assert outcome.spills == spills

    def test_resolved_groups_split_per_partition_for_the_pool(self, tmp_path, monkeypatch):
        """A single-kernel multi-config sweep with a warm trace store must
        not serialize on one worker: resolved groups are split into
        batched-replay partitions (per job with ``REPRO_BATCHED_REPLAY=0``),
        while a group that still needs its capture stays whole."""
        store = ResultStore(tmp_path)
        jobs = SweepSpec(
            name="split", kernels=[("csum", {"scale": 0.25})], schemes=SCHEME_NAMES
        ).jobs()
        warmer = ParallelSweepEngine(jobs=1, store=store)
        warmer.run_one(jobs[0])  # capture the trace, warm one result

        engine = ParallelSweepEngine(jobs=4, store=store)
        tasks = engine._split_resolved_groups(engine._resolve_groups(jobs[1:]))
        # Trace already stored: all remaining jobs share one register-file
        # geometry, so they form a single batched-replay task with the
        # payload decoded once in the parent.
        assert [len(group) for _, group, _, _ in tasks] == [len(jobs) - 1]
        assert all(trace is not None and payload is None for _, _, trace, payload in tasks)

        # The escape hatch restores the historical per-job split.
        monkeypatch.setenv("REPRO_BATCHED_REPLAY", "0")
        legacy = ParallelSweepEngine(jobs=4, store=store)
        legacy_tasks = legacy._split_resolved_groups(legacy._resolve_groups(jobs[1:]))
        assert [len(group) for _, group, _, _ in legacy_tasks] == [1] * (len(jobs) - 1)
        monkeypatch.delenv("REPRO_BATCHED_REPLAY")

        cold = ParallelSweepEngine(jobs=4, store=ResultStore(tmp_path / "cold"))
        cold_tasks = cold._split_resolved_groups(cold._resolve_groups(jobs))
        (task,) = cold_tasks  # needs capture: stays one whole group
        assert len(task[1]) == len(jobs)

        outcomes = engine.run_jobs(jobs)
        assert engine.traces_captured == 0
        assert engine.batched_replays == 1
        serial = ParallelSweepEngine(jobs=1).run_jobs(jobs)
        for job in jobs:
            assert outcomes[job].result.to_dict() == serial[job].result.to_dict()

    def test_starved_pool_captures_cold_group_in_parent(self, tmp_path):
        """A cold single-kernel multi-config sweep must not pin the whole
        batch to one worker: the parent runs the (cheap) capture itself --
        still exactly once -- and the replays fan out per job."""
        jobs = SweepSpec(
            name="starved", kernels=[("csum", {"scale": 0.25})], schemes=SCHEME_NAMES
        ).jobs()
        engine = ParallelSweepEngine(jobs=4, store=ResultStore(tmp_path))
        tasks = engine._split_resolved_groups(engine._resolve_groups(jobs))
        assert len(tasks) == 1  # capture-needed group: whole, pool starved
        resolved = engine._split_resolved_groups(engine._capture_starved_groups(tasks))
        assert engine.traces_captured == 1
        # After capture the replays fan out per batched-replay partition;
        # every scheme shares one register-file geometry here, so the group
        # stays one batched task (one per job with REPRO_BATCHED_REPLAY=0).
        assert len(resolved) == 1
        assert len(resolved[0][1]) == len(jobs)

        outcomes = ParallelSweepEngine(jobs=4, store=ResultStore(tmp_path / "e2e")).run_jobs(jobs)
        serial = ParallelSweepEngine(jobs=1).run_jobs(jobs)
        for job in jobs:
            assert outcomes[job].result.to_dict() == serial[job].result.to_dict()

    def test_pooled_engine_without_store_memoizes_captures(self):
        """Regression: with --no-cache and a worker pool there is no store
        to answer later trace lookups, so the parent must memoize the
        captured traces -- a follow-up batch or captured_trace() call may
        never re-run the functional machine."""
        jobs = SweepSpec(
            name="nostore",
            kernels=[("csum", {"scale": 0.25}), ("memcpy", {"scale": 0.25})],
        ).jobs()
        engine = ParallelSweepEngine(jobs=4, store=None)
        engine.run_jobs(jobs)
        assert engine.traces_captured == 2
        for job in jobs:
            engine.captured_trace(job.trace_spec())
        assert engine.traces_captured == 2  # answered from the trace memo

    def test_captured_trace_api_shares_engine_cache(self, tmp_path):
        """figure12a's path: captured_trace answers from the engine memo /
        store and never re-runs the functional machine for a traced job."""
        engine = ParallelSweepEngine(jobs=1, store=ResultStore(tmp_path))
        job = KernelJob(kernel="gemm", scale=0.25)
        engine.run_one(job)
        assert engine.traces_captured == 1
        trace = engine.captured_trace(job.trace_spec())
        assert engine.traces_captured == 1  # memo/store hit, no re-capture
        assert trace == TraceSpec("gemm", "mve", 0.25).capture().trace


class TestStagedParityAcrossExperiments:
    """Satellite: grouped capture+replay reproduces the legacy fused path
    bit-for-bit across the job sets of all registered experiments."""

    @pytest.fixture(scope="class")
    def distinct_jobs(self):
        jobs = []
        experiments = all_experiments()
        assert len(experiments) == 11
        for experiment in experiments:
            jobs.extend(experiment.jobs())
        return list(dict.fromkeys(jobs))

    def test_staged_engine_matches_fused_path_bit_for_bit(
        self, distinct_jobs, tmp_path_factory
    ):
        store = ResultStore(tmp_path_factory.mktemp("staged-parity"))
        engine = ParallelSweepEngine(jobs=1, store=store)
        staged = engine.run_jobs(distinct_jobs)

        # Every distinct trace captured exactly once across all experiments.
        assert set(engine.trace_captures) == {j.trace_spec() for j in distinct_jobs}
        assert all(count == 1 for count in engine.trace_captures.values())
        assert engine.computed == len(distinct_jobs)

        for job in distinct_jobs:
            result, spills = legacy_fused(job)
            assert staged[job].result.to_dict() == result.to_dict(), job.describe()
            assert staged[job].spills == spills, job.describe()
