"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Prepares the workload's inputs from the seed, then runs timed passes for
about ``--seconds`` seconds (at least one), probing the host speed before
and after each pass (``hostspeed.py``).  With ``--trace 0`` it also times
five fresh-interpreter set-ups and reports the end-to-end metrics; with
``--trace 1`` it runs half the budget untraced, then installs the span
recorder, runs the other half traced, and reports the per-layer metrics
(spans are written to ``.bench_work/spans/``).  Human-readable lines come
first; the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Metric names and units come from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("cold_capture", "trace_warm_replay", "pool_batches", "read_api")
SETUP_REPEATS = 5
#: interpreter settings that make the memory high-water mark repeat: a fixed
#: hash seed fixes set/dict iteration order (the peak otherwise moves ~25%
#: with it), and without numpy's hugepage advice khugepaged cannot fold
#: partly used arrays into 2 MB pages at a moment that varies run to run
PINNED_ENV = {"PYTHONHASHSEED": "0", "NUMPY_MADVISE_HUGEPAGE": "0"}
#: source layers whose line counts the traced run reports (``entry`` is the
#: top-level modules: CLI, worker, package init)
LOC_LAYERS = (
    "baselines", "compiler", "core", "experiments", "explore",
    "intrinsics", "isa", "memory", "sram", "workloads",
)


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource tracker if this process
    started one (the trace arena's shared memory does), so no helper
    process outlives the run.  Call it only once the pool workers, which
    share the tracker's pipe, have exited."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record",
        action="store_true",
        help="run one pass and record its job digests in expected_digests.json",
    )
    return parser.parse_args(argv)


def configure_environment(workdir: Path) -> dict:
    """Keep every file the program writes inside the work directory and
    run it with its defaults (no inherited REPRO_* override)."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    (workdir / "tmp").mkdir(parents=True)
    os.environ["REPRO_SWEEP_CACHE_DIR"] = str(workdir / "default-cache")
    os.environ["TMPDIR"] = str(workdir / "tmp")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def time_setups(workload, env) -> list:
    """``SETUP_REPEATS`` set-up times, each scaled by the host probe around
    it when the workload's times are."""
    setups = []
    before = hostspeed.probe_s()
    for _ in range(SETUP_REPEATS):
        elapsed = time_setup(workload, env)
        after = hostspeed.probe_s()
        setups.append(hostspeed.scaled(elapsed, (before + after) / 2) if workload.host_scaled else elapsed)
        before = after
    return setups


def time_setup(workload, env) -> float:
    start = time.perf_counter()
    probe = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), *workload.setup_args()],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - start
    if probe.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{probe.stderr}")
    return elapsed


def measure(workload, budget_s: float, recorder=None, first_id: int = 0) -> list:
    """Timed passes until another one would overrun the budget (at least
    one), with the host speed probed before and after each pass (and
    inside it, where the workload does that)."""
    passes = []
    start = time.perf_counter()
    before = hostspeed.probe_s()
    while True:
        if recorder is not None:
            recorder.pass_id = first_id + len(passes)
        result = workload.run_pass()
        if recorder is not None:
            recorder.pass_id = None
        after = hostspeed.probe_s()
        result.probe_s = statistics.mean([before, *result.inner_probes, after])
        passes.append(result)
        before = after
        typical = statistics.median(p.wall_s for p in passes)
        if time.perf_counter() - start + typical > budget_s:
            return passes


def line_counts() -> dict:
    package = ROOT / "src" / "repro"

    def count(paths):
        return sum(len(path.read_text().splitlines()) for path in paths)

    counts = {f"loc.{layer}": count((package / layer).rglob("*.py")) for layer in LOC_LAYERS}
    counts["loc.entry"] = count(package.glob("*.py"))
    counts["loc.total"] = count(package.rglob("*.py"))
    return counts


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(setups, passes, host_scaled: bool) -> dict:
    walls = [p.ref_wall_s if host_scaled else p.wall_s for p in passes]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(walls),
        "ops_per_s": sum(p.ops for p in passes) / sum(walls),
        "peak_rss_mb": peak_rss_mb(),
        "ok_ratio": (attempted - failed) / attempted,
    }


def per_layer(recorder, plain, traced, memo_hit_ratio: float) -> dict:
    from spans import http_split, layer_metrics

    windows = {index: p.window for index, p in enumerate(traced, start=len(plain))}
    metrics = layer_metrics(recorder, windows)
    for name in (
        "engine.computed", "engine.traces_captured", "engine.trace_store_hits",
        "engine.batched_replays", "arena.publishes", "pool.reuses",
    ):
        metrics[name] = statistics.mean(p.counters.get(name, 0) for p in traced)
    metrics["arena.live_segments_after"] = traced[-1].counters.get("arena.live_segments_after", 0)
    metrics["compile.memo_hit_ratio"] = memo_hit_ratio
    requests = [record for p in traced for record in p.requests]
    metrics["http.handle.p50_ms"], metrics["http.wait.p50_ms"] = http_split(recorder, requests)
    metrics["trace.overhead_s"] = statistics.median(p.wall_s for p in traced) - statistics.median(
        p.wall_s for p in plain
    )
    metrics.update(line_counts())
    return metrics


def emit(declared, values, human) -> dict:
    """Check the computed metrics against BENCHMARK.json and attach units."""
    names = {metric["name"] for metric in declared}
    if names != set(values):
        raise RuntimeError(
            f"metric set differs from BENCHMARK.json: missing {sorted(names - set(values))}, "
            f"undeclared {sorted(set(values) - names)}"
        )
    out = {}
    for metric in declared:
        value = values[metric["name"]]
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
        human.append(f"  {metric['name']:<30} {value:>14.6g} {metric['unit']}")
    return out


def run(args) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; nothing to run", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    env = configure_environment(workdir)
    # Registered before the library is imported, so it runs after the
    # library's own exit hooks (atexit is last in, first out): the trace
    # arena's exit sweep unlinks segments through the tracker and may
    # restart it.
    atexit.register(stop_resource_tracker)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    workload = workloads.WORKLOADS[args.workload](workdir, args.seed)
    try:
        workload.prepare()
        if args.record:
            return record(workload)
        human = []
        if args.trace:
            from repro.compiler.pipeline import compile_cache_info
            from spans import SpanRecorder

            plain = measure(workload, args.seconds / 2)
            recorder = SpanRecorder()
            before = compile_cache_info()
            recorder.install()
            try:
                traced = measure(workload, args.seconds / 2, recorder, first_id=len(plain))
            finally:
                recorder.uninstall()
            after = compile_cache_info()
            lookups = after["hits"] + after["misses"] - before["hits"] - before["misses"]
            memo_hits = (after["hits"] - before["hits"]) / lookups if lookups else 0.0
            passes = plain + traced
            values = per_layer(recorder, plain, traced, memo_hits)
            spans_path = ROOT / ".bench_work" / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
            recorder.write(spans_path)
            human.append(
                f"perfbench {args.workload} seed={args.seed}: {len(plain)} untraced + "
                f"{len(traced)} traced passes; per-layer means per traced pass "
                f"({len(recorder.spans)} spans in {spans_path.relative_to(ROOT)})"
            )
            metrics = emit(declared["per_layer"], values, human)
        else:
            setups = time_setups(workload, env)
            workload.probe_in_pass = True
            passes = measure(workload, args.seconds)
            values = end_to_end(setups, passes, workload.host_scaled)
            human.append(
                f"perfbench {args.workload} seed={args.seed}: {len(passes)} passes "
                f"(host time; set-up is the median of {SETUP_REPEATS} fresh interpreters)"
            )
            metrics = emit(declared["end_to_end"], values, human)
            walls = [p.wall_s for p in passes]
            spread = workloads.tail(walls)
            human.append(
                f"  pass_s over {len(walls)} passes: median {statistics.median(walls):.4f} s, "
                + (f"p{spread[0]} {spread[1]:.4f} s" if spread else "no percentile has 10 passes beyond it")
            )
            human.append("  pass walls: " + " ".join(f"{wall:.3f}" for wall in walls))
            human.append(
                f"  host probe: median {statistics.median(p.probe_s for p in passes) * 1e3:.3f} ms "
                f"({sum(len(p.inner_probes) for p in passes)} probes inside passes), "
                f"reference {hostspeed.REFERENCE_PROBE_S * 1e3:g} ms; pass_s and ops_per_s are "
                + ("scaled to the reference" if workload.host_scaled else "not scaled")
            )
            human.append("  probes ms: " + " ".join(f"{p.probe_s * 1e3:.2f}" for p in passes))
        attempted = sum(p.attempted for p in passes)
        failed = sum(p.failed for p in passes)
        human.append(f"  attempted {attempted}, failed {failed}, failed_ratio {failed / attempted:.6g}")
        if args.workload != "read_api":
            human.append(
                f"  sim_instr_per_s {sum(p.ops for p in passes) / sum(p.wall_s for p in passes):.6g} 1/s"
                " (simulated dynamic trace entries per host second)"
            )
        human.extend(f"  {line}" for line in workload.extra_report(passes))
        human.extend(f"  simulated, unvalidated: {line}" for line in workload.headline())
        print("\n".join(human))
        for problem in [problem for p in passes for problem in p.problems][:10]:
            print(f"perfbench: check failed: {problem}", file=sys.stderr)
        print(
            json.dumps(
                {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
            )
        )
        return 0
    finally:
        workload.close()
        stop_resource_tracker()
        shutil.rmtree(workdir, ignore_errors=True)


def record(workload) -> int:
    """Record the digests of one pass as the expected results."""
    import workloads

    if not hasattr(workload, "jobs"):
        print(f"perfbench: {workload.name} has no simulation jobs to record", file=sys.stderr)
        return 2
    workload.run_pass()
    expected = workloads.load_expected()
    expected.update(
        (workloads.job_id(job), workloads.outcome_digest(outcome))
        for job, outcome in workload.last_outcomes.items()
    )
    workloads.EXPECTED_DIGESTS.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(workload.last_outcomes)} job digests for {workload.name}")
    return 0


def main(argv=None) -> int:
    if argv is None and any(os.environ.get(name) != value for name, value in PINNED_ENV.items()):
        # exec keeps the process (and its PID); only the environment changes.
        os.execve(
            sys.executable,
            [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
            {**os.environ, **PINNED_ENV},
        )
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
