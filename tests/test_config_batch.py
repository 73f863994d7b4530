"""Parity and counter suite for the config-batched replay engine.

The tentpole contract, pinned bit-for-bit:

* ``simulate_trace_batch`` reproduces the per-config ``MVESimulator``
  reference (``REPRO_BATCHED_REPLAY=0``) exactly, for one config and for
  many -- the full ``SimulationResult`` dict including cache/DRAM statistics,
  plus compile spill counts -- across the compute-scheme axis, the cache
  geometry axis, the DRAM timing axis, and mixed axes that force a
  compiled-kernel split inside one batch,
* the sweep engine's batched path is bit-identical to the
  ``REPRO_BATCHED_REPLAY=0`` escape hatch over the deduped job sets of
  every registered experiment, and
* the engine counters stay honest: a warm sweep counts one trace-store hit
  per distinct spec regardless of ``--jobs``, and an eight-config
  single-trace sweep replays exactly once.
"""

import dataclasses

import pytest

from repro.core.cache import ResultStore
from repro.core.config import default_config
from repro.core.replay import batched_replay_enabled, replay_group_key
from repro.core.simulator import simulate_trace, simulate_trace_batch
from repro.core.traces import TraceSpec
from repro.experiments.registry import all_experiments
from repro.experiments.sweep import (
    KernelJob,
    ParallelSweepEngine,
    SweepSpec,
    batch_partitions,
    simulate_traced_group,
)
from repro.memory import CacheConfig, DRAMConfig, HierarchyConfig
from repro.sram.array import EngineGeometry, SramArrayGeometry
from repro.sram.schemes import SCHEME_NAMES


@pytest.fixture(scope="module")
def csum_trace():
    return TraceSpec("csum", "mve", 0.25).capture().trace


@pytest.fixture(scope="module")
def gemm_trace():
    return TraceSpec("gemm", "mve", 0.25).capture().trace


def shrunk_rows_config():
    """Same SIMD lane count (so the same captured trace applies) but a
    different register-file geometry: forces a compile split in a batch."""
    engine = EngineGeometry(array=SramArrayGeometry(rows=128, cols=256))
    return dataclasses.replace(default_config(), engine=engine)


def reference_replay(trace, config):
    """The per-config reference: ``simulate_trace`` with batching switched
    off, which replays through ``MVESimulator.run``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_BATCHED_REPLAY", "0")
        return simulate_trace(trace, config=config)


def assert_batch_parity(trace, configs):
    batched = simulate_trace_batch(trace, configs)
    assert len(batched) == len(configs)
    for config, (result, compiled) in zip(configs, batched):
        expected, expected_compiled = reference_replay(trace, config)
        assert result.to_dict() == expected.to_dict()
        assert compiled.spill_count == expected_compiled.spill_count


class TestSimulateTraceBatchParity:
    """simulate_trace_batch vs the per-config reference, axis by axis."""

    def test_scheme_axis(self, csum_trace):
        configs = [default_config().with_scheme(name) for name in SCHEME_NAMES]
        assert_batch_parity(csum_trace, configs)

    def test_cache_geometry_axis(self, csum_trace):
        base = default_config()
        small_l2 = HierarchyConfig(
            l2=CacheConfig(name="L2", size_bytes=256 * 1024, ways=8, hit_latency=12, mshr_entries=46)
        )
        configs = [
            dataclasses.replace(base, hierarchy=hierarchy, l2_compute_ways=ways)
            for hierarchy in (HierarchyConfig(), small_l2)
            for ways in (4, 6)
        ]
        assert_batch_parity(csum_trace, configs)

    def test_dram_axis(self, gemm_trace):
        base = default_config()
        variants = [
            DRAMConfig(),
            DRAMConfig(t_cas=60, t_rcd=70, t_rp=70),  # timing-only: shares one replay
            DRAMConfig(num_channels=2, num_banks=4),  # structure change: own memory pass
        ]
        configs = [
            dataclasses.replace(base, hierarchy=HierarchyConfig(dram=dram))
            for dram in variants
        ]
        assert_batch_parity(gemm_trace, configs)

    def test_mixed_axis_with_compile_split(self, gemm_trace):
        base = default_config()
        configs = [
            base,
            base.with_scheme("bit-parallel"),
            dataclasses.replace(base, sram_cycle_multiplier=2.0),
            dataclasses.replace(base, hierarchy=HierarchyConfig(dram=DRAMConfig(t_cas=60))),
            shrunk_rows_config(),
            shrunk_rows_config().with_scheme("associative"),
        ]
        assert len({replay_group_key(config) for config in configs}) == 2
        assert_batch_parity(gemm_trace, configs)

    def test_escape_hatch_falls_back_per_config(self, csum_trace, monkeypatch):
        monkeypatch.setenv("REPRO_BATCHED_REPLAY", "0")
        assert not batched_replay_enabled()
        configs = [default_config().with_scheme(name) for name in SCHEME_NAMES[:2]]
        assert_batch_parity(csum_trace, configs)

    def test_scalar_cache_mode_disables_batching(self, monkeypatch):
        monkeypatch.delenv("REPRO_BATCHED_REPLAY", raising=False)
        monkeypatch.setenv("REPRO_SCALAR_CACHE", "1")
        assert not batched_replay_enabled()

    def test_single_config_batch(self, csum_trace):
        assert_batch_parity(csum_trace, [default_config()])


class TestEngineEnvParity:
    """Acceptance: REPRO_BATCHED_REPLAY=0 is bit-identical to the batched
    default across the deduped job sets of all registered experiments."""

    @pytest.fixture(scope="class")
    def trace_groups(self):
        experiments = all_experiments()
        assert len(experiments) == 11
        jobs = []
        for experiment in experiments:
            jobs.extend(experiment.jobs())
        groups = {}
        for job in dict.fromkeys(jobs):
            groups.setdefault(job.trace_spec(), []).append(job)
        return groups

    def test_batched_matches_legacy_for_every_experiment_job(
        self, trace_groups, monkeypatch
    ):
        for spec, jobs in trace_groups.items():
            trace = spec.capture().trace
            monkeypatch.delenv("REPRO_BATCHED_REPLAY", raising=False)
            batched = simulate_traced_group(jobs, trace)
            monkeypatch.setenv("REPRO_BATCHED_REPLAY", "0")
            legacy = simulate_traced_group(jobs, trace)
            monkeypatch.delenv("REPRO_BATCHED_REPLAY")
            for job, got, want in zip(jobs, batched, legacy):
                assert got.result.to_dict() == want.result.to_dict(), job.describe()
                assert got.spills == want.spills, job.describe()


def eight_config_jobs():
    """One trace spec, eight configurations: 4 schemes x 2 l2_compute_ways."""
    base = default_config()
    jobs = [
        KernelJob(
            kernel="csum",
            scale=0.25,
            scheme_name=scheme,
            config=dataclasses.replace(base.with_scheme(scheme), l2_compute_ways=ways),
        )
        for scheme in SCHEME_NAMES
        for ways in (4, 6)
    ]
    assert len({job.trace_spec() for job in jobs}) == 1
    return jobs


def warm_traces_only(store_root, jobs):
    """Run the sweep once, then drop the results but keep the trace
    artifacts -- the next engine must replay (results cold) from the
    stored captures (traces warm)."""
    ParallelSweepEngine(jobs=1, store=ResultStore(store_root)).run_jobs(jobs)
    trace_keys = {job.trace_spec().cache_key() for job in jobs}
    for path in store_root.glob("*/*.json"):
        if path.stem not in trace_keys:
            path.unlink()


class TestEngineCounters:
    """Satellite: trace_store_hits counts specs, not partitions or jobs."""

    @pytest.mark.parametrize(
        "workers,batched",
        [(1, True), (2, True), (8, True), (2, False)],
        ids=["serial", "pool2", "pool8", "pool2-legacy"],
    )
    def test_warm_sweep_hits_once_per_spec(self, tmp_path, monkeypatch, workers, batched):
        if not batched:
            monkeypatch.setenv("REPRO_BATCHED_REPLAY", "0")
        jobs = SweepSpec(
            name="counters",
            kernels=[("csum", {"scale": 0.25}), ("memcpy", {"scale": 0.25})],
            schemes=SCHEME_NAMES,
        ).jobs()
        specs = {job.trace_spec() for job in jobs}
        assert len(specs) == 2
        warm_traces_only(tmp_path, jobs)

        engine = ParallelSweepEngine(jobs=workers, store=ResultStore(tmp_path))
        outcomes = engine.run_jobs(jobs)
        assert len(outcomes) == len(jobs)
        assert engine.computed == len(jobs)  # results really were cold
        assert engine.traces_captured == 0
        # The fixed counter: one hit per distinct warm spec, not one per
        # replay partition (or per job under the legacy split).
        assert engine.trace_store_hits == len(specs)
        assert engine.batched_replays == (len(specs) if batched else 0)

    def test_eight_config_sweep_replays_once(self, tmp_path):
        jobs = eight_config_jobs()
        warm_traces_only(tmp_path, jobs)

        engine = ParallelSweepEngine(jobs=1, store=ResultStore(tmp_path))
        outcomes = engine.run_jobs(jobs)
        assert len(outcomes) == len(jobs)
        assert engine.computed == len(jobs)
        assert engine.traces_captured == 0
        assert engine.trace_store_hits == 1
        assert engine.batched_replays == 1  # the whole axis in one replay

    def test_batch_partitions_split_on_register_geometry(self):
        jobs = [
            KernelJob(kernel="csum", scale=0.25, scheme_name=scheme)
            for scheme in SCHEME_NAMES
        ]
        assert [len(p) for p in batch_partitions(jobs)] == [len(jobs)]

        jobs.append(KernelJob(kernel="csum", scale=0.25, config=shrunk_rows_config()))
        assert len({job.trace_spec() for job in jobs}) == 1  # same lanes
        assert sorted(len(p) for p in batch_partitions(jobs)) == [1, len(jobs) - 1]
