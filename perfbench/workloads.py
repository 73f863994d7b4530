"""The benchmark's four workloads, driven through the public library API.

Each workload prepares its inputs once per run (untimed), then runs timed
passes.  A pass returns its wall time plus the outcome of its output
checks; every check failure counts as a failed operation.

* ``cold_capture`` -- figure7 + figure8 with ``jobs=1`` on an empty store:
  capture, trace encode, store writes, replay and the Neon/GPU baselines.
* ``trace_warm_replay`` -- figure9 + figure13 with ``jobs=1`` on a store
  holding only their traces: decode, compile, per-config replay (figure9)
  and batched replay (figure13), plus figure9's recapture in assemble.
* ``pool_batches`` -- the figure7 + figure13 job set, batch after batch,
  on one engine with a persistent two-worker pool; results are dropped
  between batches (traces kept) so every batch replays.
* ``read_api`` -- two keep-alive clients in a closed loop against an
  in-process ``CacheServer`` over a fully warm store.

Simulation workloads build a fresh runner per pass (no in-process memo
answers a later pass); ``pool_batches`` keeps its engine because the warm
persistent pool is what it measures.
"""

from __future__ import annotations

import gc
import hashlib
import http.client
import json
import multiprocessing
import os
import random
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
from repro.core import trace_arena
from repro.core.cache import ResultStore
from repro.core.cache_service import CacheServer
from repro.core.store_backend import LocalDirBackend
from repro.experiments import registry
from repro.experiments.adapters import LocalPoolAdapter
from repro.experiments.export import experiment_export_payload, render_payload
from repro.experiments.sweep import ParallelSweepEngine

EXPECTED_DIGESTS = Path(__file__).with_name("expected_digests.json")


# ---------------------------------------------------------------------- #
#  Output checks
# ---------------------------------------------------------------------- #


def job_id(job) -> str:
    """Identity of a job that survives source edits (unlike its cache key)."""
    return job.describe()


def _canonical(value):
    # Ten significant digits: any real change to a simulated number shows,
    # while a last-bit difference in a host math library does not.
    if isinstance(value, float):
        return f"{value:.10g}"
    if isinstance(value, dict):
        return {key: _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def outcome_digest(outcome) -> str:
    """Digest of one job's ``SimulationResult.to_dict()`` and spill count."""
    body = json.dumps(
        {"result": _canonical(outcome.result.to_dict()), "spills": outcome.spills},
        sort_keys=True,
    )
    return hashlib.sha256(body.encode()).hexdigest()[:16]


def tail(values, labels=(99, 95, 90, 75)):
    """The highest percentile with at least ten samples beyond it, as
    (label, value), or None."""
    for label in labels:
        if len(values) * (100 - label) / 100 >= 10:
            return label, statistics.quantiles(values, n=100)[label - 1]
    return None


def load_expected() -> dict:
    if not EXPECTED_DIGESTS.is_file():
        return {}
    return json.loads(EXPECTED_DIGESTS.read_text())


def distinct_jobs(experiments) -> list:
    jobs = []
    for name in experiments:
        jobs.extend(registry.get_experiment(name).jobs())
    return list(dict.fromkeys(jobs))


#: one-line summaries of each experiment's simulated headline numbers
HEADLINES = {
    "figure7": lambda result: (
        f"figure7 mean speedup over Neon {result.mean_speedup:.3f}x, "
        f"mean energy ratio {result.mean_energy_ratio:.3f}x"
    ),
    "figure8": lambda result: f"figure8 mean GPU/MVE time ratio {result.mean_time_ratio:.3f}x",
    "figure9": lambda result: (
        f"figure9 GPU crossover: GEMM {result.gemm_crossover_flops}, "
        f"SpMM {result.spmm_crossover_flops} ops"
    ),
    "figure13": lambda result: "figure13 MVE speedup over RVV: "
    + ", ".join(f"{row.scheme} {row.speedup:.3f}x" for row in result.schemes),
}


def headline_lines(results: dict) -> list[str]:
    return [
        HEADLINES[name](result)
        for name, result in results.items()
        if name in HEADLINES and result is not None
    ]


@dataclass
class PassResult:
    """One timed pass: wall time, window, operations and check outcome."""

    wall_s: float
    window: tuple[int, int]
    attempted: int
    failed: int
    #: simulated dynamic trace entries (simulation) or requests (read_api)
    ops: int
    counters: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    requests: list = field(default_factory=list)
    #: probes taken inside the pass (serial simulation workloads, untraced)
    inner_probes: list = field(default_factory=list)
    #: host probe time over the pass (mean of the probes just before it,
    #: inside it and just after it); set by the runner
    probe_s: float = 0.0

    @property
    def ref_wall_s(self) -> float:
        """Wall time scaled to the reference host speed."""
        return hostspeed.scaled(self.wall_s, self.probe_s)


def engine_counters(engine) -> dict:
    """The engine's exact-repeat counters (cumulative over its lifetime)."""
    return {
        "engine.computed": engine.computed,
        "engine.traces_captured": engine.traces_captured,
        "engine.trace_store_hits": engine.trace_store_hits,
        "engine.batched_replays": engine.batched_replays,
        "pool.reuses": engine.pool_reuses,
    }


def counter_problems(counters: dict, expect: dict) -> list:
    return [
        f"{name} = {counters[name]}, expected {want}"
        for name, want in expect.items()
        if counters[name] != want
    ]


class _Timer:
    def __enter__(self):
        # the previous pass's garbage is collected here, not inside this pass
        gc.collect()
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter_ns()

    @property
    def wall_s(self) -> float:
        return (self.end - self.start) / 1e9


def _prune(store_dir: Path, keep: set) -> None:
    """Drop every store record except ``keep`` (the traces)."""
    for path in store_dir.glob("*/*.json"):
        if path.stem not in keep:
            path.unlink()


# ---------------------------------------------------------------------- #
#  Workloads
# ---------------------------------------------------------------------- #


class Workload:
    name = "base"
    experiments: tuple = ()
    #: whether the gated times are scaled to the reference host speed
    #: (pass time tracks CPU speed); see hostspeed.py
    host_scaled = True
    #: whether a pass also probes the host while it runs; the runner turns
    #: it on for untraced passes only, so no probe lands inside a span
    probe_in_pass = False

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.expected = load_expected()

    def prepare(self) -> None:
        """Build the run's inputs from the seed (untimed)."""

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def setup_args(self) -> list[str]:
        """Arguments of the set-up probe for this workload."""
        return [self.name, str(self.workdir / "probe-store")]

    def headline(self) -> list[str]:
        """Simulated headline numbers of the experiments this run assembled."""
        return []

    def extra_report(self, passes) -> list[str]:
        return []

    def close(self) -> None:
        pass

    def check_jobs(self, jobs, outcomes) -> tuple[int, list]:
        """Failed jobs: missing outcome, or digest unlike the recorded one."""
        failed, problems = 0, []
        for job in jobs:
            outcome = outcomes.get(job)
            want = self.expected.get(job_id(job))
            got = outcome_digest(outcome) if outcome is not None else None
            if got is None or got != want:
                failed += 1
                problems.append(f"{job_id(job)}: digest {got} != recorded {want}")
        return failed, problems


class _SerialExperiments(Workload):
    """Shared pass shape of the two serial simulation workloads."""

    def prepare(self) -> None:
        self.jobs = distinct_jobs(self.experiments)
        self.specs = list(dict.fromkeys(job.trace_spec() for job in self.jobs))
        self.trace_lengths: dict = {}
        self.results: dict = {}
        self.last_outcomes: dict = {}

    def _run_experiments(self, store_dir: Path):
        outcomes = {}
        probes = hostspeed.InPassProbes()

        def collect(job, outcome, completed, total):
            outcomes.setdefault(job, outcome)
            if self.probe_in_pass:
                probes.maybe_probe()

        with _Timer() as timer:
            runner = registry.build_runner(jobs=1, store=ResultStore(store_dir))
            for name in self.experiments:
                self.results[name] = registry.run_experiment(
                    name, runner=runner, on_result=collect
                )
        self.last_outcomes = outcomes
        return timer, probes, runner.engine, outcomes

    def _finish(self, timer, probes, engine, outcomes, expect: dict) -> PassResult:
        failed, problems = self.check_jobs(self.jobs, outcomes)
        counters = engine_counters(engine)
        broken = counter_problems(counters, expect)
        return PassResult(
            wall_s=timer.wall_s - probes.spent_s,
            inner_probes=probes.values,
            window=(timer.start, timer.end),
            attempted=len(self.jobs),
            # a pass that breaks an exact-repeat counter proves none of its jobs
            failed=len(self.jobs) if broken else failed,
            ops=sum(self.trace_lengths[job.trace_spec()] for job in self.jobs),
            counters=counters,
            problems=broken + problems,
        )

    def headline(self) -> list[str]:
        return headline_lines(self.results)


class ColdCapture(_SerialExperiments):
    name = "cold_capture"
    experiments = ("figure7", "figure8")

    def run_pass(self) -> PassResult:
        store_dir = self.workdir / "cold-store"
        shutil.rmtree(store_dir, ignore_errors=True)
        timer, probes, engine, outcomes = self._run_experiments(store_dir)
        if not self.trace_lengths:
            engine_view = ParallelSweepEngine(jobs=1, store=ResultStore(store_dir))
            for spec in self.specs:
                self.trace_lengths[spec] = len(engine_view.captured_trace(spec))
        result = self._finish(
            timer,
            probes,
            engine,
            outcomes,
            {"engine.computed": len(self.jobs), "engine.traces_captured": len(self.specs)},
        )
        shutil.rmtree(store_dir, ignore_errors=True)
        return result


class TraceWarmReplay(_SerialExperiments):
    name = "trace_warm_replay"
    experiments = ("figure9", "figure13")

    def prepare(self) -> None:
        super().prepare()
        self.store_dir = self.workdir / "trace-store"
        capture = ParallelSweepEngine(jobs=1, store=ResultStore(self.store_dir))
        for spec in self.specs:
            self.trace_lengths[spec] = len(capture.captured_trace(spec))
        self.trace_keys = {spec.cache_key() for spec in self.specs}

    def run_pass(self) -> PassResult:
        _prune(self.store_dir, self.trace_keys)
        timer, probes, engine, outcomes = self._run_experiments(self.store_dir)
        return self._finish(
            timer,
            probes,
            engine,
            outcomes,
            {
                "engine.computed": len(self.jobs),
                "engine.traces_captured": 0,
                "engine.trace_store_hits": len(self.specs),
            },
        )



class PoolBatches(Workload):
    name = "pool_batches"
    experiments = ("figure7", "figure13")
    workers = 2

    def prepare(self) -> None:
        self.jobs = distinct_jobs(self.experiments)
        random.Random(self.seed).shuffle(self.jobs)
        self.specs = list(dict.fromkeys(job.trace_spec() for job in self.jobs))
        self.store_dir = self.workdir / "trace-store"
        capture = ParallelSweepEngine(jobs=1, store=ResultStore(self.store_dir))
        self.trace_lengths = {
            spec: len(capture.captured_trace(spec)) for spec in self.specs
        }
        del capture
        self.trace_keys = {spec.cache_key() for spec in self.specs}
        self.engine = ParallelSweepEngine(
            store=ResultStore(self.store_dir), adapter=LocalPoolAdapter(jobs=self.workers)
        )
        # Untimed warm-up batch: spawns the pool and fills worker-side caches.
        _prune(self.store_dir, self.trace_keys)
        self.engine.stream_jobs(self.jobs)

    def run_pass(self) -> PassResult:
        _prune(self.store_dir, self.trace_keys)
        engine = self.engine
        before = engine_counters(engine)
        published_before = dict(engine.arena_publishes)
        outcomes = {}

        def collect(job, outcome, completed, total):
            outcomes.setdefault(job, outcome)

        with _Timer() as timer:
            engine.stream_jobs(self.jobs, on_result=collect)
        self.last_outcomes = outcomes
        counters = {name: value - before[name] for name, value in engine_counters(engine).items()}
        publishes = {
            spec: count - published_before.get(spec, 0)
            for spec, count in engine.arena_publishes.items()
            if count != published_before.get(spec, 0)
        }
        counters["arena.publishes"] = sum(publishes.values())
        counters["arena.live_segments_after"] = live_arena_segments()
        failed, problems = self.check_jobs(self.jobs, outcomes)
        broken = counter_problems(
            counters, {"engine.computed": len(self.jobs), "engine.traces_captured": 0}
        )
        if publishes != {spec: 1 for spec in self.specs}:
            broken.append(
                f"arena published {sum(publishes.values())} times over {len(publishes)} "
                f"traces, expected once for each of {len(self.specs)}"
            )
        return PassResult(
            wall_s=timer.wall_s,
            window=(timer.start, timer.end),
            attempted=len(self.jobs),
            failed=len(self.jobs) if broken else failed,
            ops=sum(self.trace_lengths[job.trace_spec()] for job in self.jobs),
            counters=counters,
            problems=broken + problems,
        )

    def close(self) -> None:
        engine = getattr(self, "engine", None)
        if engine is not None:
            engine.close()
        for child in multiprocessing.active_children():
            child.join(timeout=30)
            if child.is_alive():
                child.terminate()
                child.join(timeout=10)


def live_arena_segments() -> int:
    """Arena segments still alive: this process's own plus any
    ``repro-arena-*`` entry left in ``/dev/shm``."""
    names = set(trace_arena.live_segments())
    shm = Path("/dev/shm")
    if shm.is_dir():
        names.update(
            entry for entry in os.listdir(shm) if entry.startswith(trace_arena.ARENA_PREFIX)
        )
    return len(names)


# -- read API -------------------------------------------------------------- #


@dataclass
class Request:
    kind: str  # "revalidate", "json", "csv" or "catalog"
    path: str
    request_id: str
    latency_s: float = 0.0
    ok: bool = False


class _Client:
    """One keep-alive connection replaying its own seeded request stream."""

    def __init__(self, workload: "ReadApi", index: int):
        self.workload = workload
        self.index = index
        self.rng = random.Random(workload.seed * 1000 + index)
        host, port = workload.server.server_address[:2]
        self.connection = http.client.HTTPConnection(host, port, timeout=30)
        self.sent = 0
        self.records: list[Request] = []

    def next_request(self) -> Request:
        workload = self.workload
        draw = self.rng.random()
        name = self.rng.choice(workload.experiments)
        fmt = self.rng.choice(("json", "csv"))
        if draw < 0.02:
            kind, path = "catalog", "/v1/experiments"
        elif draw < 0.51:
            kind, path = "revalidate", workload.path(name, fmt)
        elif draw < 0.755:
            kind, path = "json", workload.path(name, "json")
        else:
            kind, path = "csv", workload.path(name, "csv")
        self.sent += 1
        return Request(kind, path, f"{self.index}-{self.sent}")

    def run(self, count: int) -> None:
        self.records = []
        for _ in range(count):
            request = self.next_request()
            headers = {"X-Bench-Id": request.request_id}
            if request.kind == "revalidate":
                headers["If-None-Match"] = self.workload.etags[request.path]
            start = time.perf_counter()
            self.connection.request("GET", request.path, headers=headers)
            response = self.connection.getresponse()
            body = response.read()
            request.latency_s = time.perf_counter() - start
            request.ok = self.workload.check_response(request, response, body)
            self.records.append(request)

    def close(self) -> None:
        self.connection.close()


class ReadApi(Workload):
    name = "read_api"
    experiments = ("figure7", "figure8", "figure13", "tables")
    # Full reads wait on a fixed network timer, not on the CPU, so scaling
    # by the host probe would add the probe's noise and remove none.
    host_scaled = False
    clients = 2
    requests_per_pass = 160

    def path(self, name: str, fmt: str) -> str:
        return f"/v1/experiments/{name}?format={fmt}"

    def prepare(self) -> None:
        self.store_dir = self.workdir / "warm-store"
        runner = registry.build_runner(jobs=1, store=ResultStore(self.store_dir))
        for name in self.experiments:
            registry.run_experiment(name, runner=runner)
        del runner
        backend = LocalDirBackend(self.store_dir)
        options = registry.ExperimentOptions()
        self.bodies: dict[str, bytes] = {}
        for name in self.experiments:
            record = backend.load_checked(registry.experiment_store_key(name, options))
            payload = experiment_export_payload(
                name, options, registry.assembled_result_payload(name, record)
            )
            for fmt in ("json", "csv"):
                self.bodies[self.path(name, fmt)] = render_payload(payload, fmt)
        self.server = CacheServer(("127.0.0.1", 0), root=self.store_dir)
        self.thread = self.server.start_in_background()
        self.etags: dict[str, str] = {}
        self._clients = [_Client(self, index) for index in range(self.clients)]
        # Prime the validators with one checked full read per representation.
        for path in self.bodies:
            self._clients[0].connection.request("GET", path)
            response = self._clients[0].connection.getresponse()
            body = response.read()
            if response.status != 200 or body != self.bodies[path]:
                raise RuntimeError(f"priming read of {path} does not match the local render")
            self.etags[path] = response.getheader("ETag")

    def headline(self) -> list[str]:
        store = ResultStore(self.store_dir)
        return headline_lines(
            {name: registry.load_assembled(name, store) for name in self.experiments}
        )

    def check_response(self, request: Request, response, body: bytes) -> bool:
        if request.kind == "revalidate":
            return response.status == 304 and response.getheader("ETag") == self.etags[request.path]
        if request.kind == "catalog":
            if response.status != 200:
                return False
            rows = json.loads(body)["experiments"]
            available = {row["name"] for row in rows if row["available"]}
            return set(self.experiments) <= available
        return (
            response.status == 200
            and body == self.bodies[request.path]
            and response.getheader("ETag") == self.etags[request.path]
        )

    def run_pass(self) -> PassResult:
        share = self.requests_per_pass // self.clients
        threads = [
            threading.Thread(target=client.run, args=(share,)) for client in self._clients
        ]
        with _Timer() as timer:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        records = [record for client in self._clients for record in client.records]
        failed = sum(1 for record in records if not record.ok)
        problems = [f"{r.kind} {r.path} failed its check" for r in records if not r.ok][:5]
        if len(records) != share * self.clients:
            problems.append(f"{len(records)} of {share * self.clients} requests completed")
            failed += share * self.clients - len(records)
        return PassResult(
            wall_s=timer.wall_s,
            window=(timer.start, timer.end),
            attempted=share * self.clients,
            failed=failed,
            ops=len(records),
            problems=problems,
            requests=records,
        )

    def setup_args(self) -> list[str]:
        return [self.name, str(self.store_dir)]

    def extra_report(self, passes) -> list[str]:
        records = [record for p in passes for record in p.requests]
        full = [r.latency_s * 1e3 for r in records if r.kind in ("json", "csv")]
        revalidate = [r.latency_s * 1e3 for r in records if r.kind == "revalidate"]
        lines = [
            f"read.full.p50_ms {statistics.median(full):.4f} ms over {len(full)} full reads",
            f"read.revalidate.p50_ms {statistics.median(revalidate):.4f} ms over {len(revalidate)} revalidations",
            f"read.rps {len(records) / sum(p.wall_s for p in passes):.2f} 1/s ({self.clients} closed-loop keep-alive clients)",
        ]
        full_tail = tail(full)
        if full_tail:
            lines.insert(1, f"read.full.p{full_tail[0]}_ms {full_tail[1]:.4f} ms")
        return lines

    def close(self) -> None:
        for client in getattr(self, "_clients", ()):
            client.close()
        server = getattr(self, "server", None)
        if server is not None:
            server.shutdown()
            server.server_close()
            self.thread.join(timeout=30)


WORKLOADS = {
    workload.name: workload
    for workload in (ColdCapture, TraceWarmReplay, PoolBatches, ReadApi)
}
