"""Smoke-size self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload on a reduced input set through the same entry point
the benchmark uses and asserts that

* every end-to-end metric (untraced) and every per-layer metric (traced)
  named in BENCHMARK.json is printed with its unit, and the run is correct;
* the span recorder wraps functions under the names their callers bind
  (``from ... import`` copies) and removes every wrapper afterwards;
* a deliberately wrong job digest and a read body that does not match the
  local render are both counted as failed operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import SpanRecorder  # noqa: E402


class SmokeCold(workloads.ColdCapture):
    experiments = ("figure8",)


class SmokeTraceWarm(workloads.TraceWarmReplay):
    experiments = ("figure13",)


class SmokePool(workloads.PoolBatches):
    experiments = ("figure13",)


class SmokeRead(workloads.ReadApi):
    experiments = ("tables",)
    requests_per_pass = 20


SMOKE = {
    "cold_capture": SmokeCold,
    "trace_warm_replay": SmokeTraceWarm,
    "pool_batches": SmokePool,
    "read_api": SmokeRead,
}


def run_cli(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)])
    assert code == 0, f"{workload} exited {code}"
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_metrics_printed() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    saved = dict(workloads.WORKLOADS)
    workloads.WORKLOADS.update(SMOKE)
    try:
        for name in SMOKE:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                result = run_cli(name, trace)
                assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
                assert result["correct"] and result["failed"] == 0, (name, trace, result)
                assert result["attempted"] >= 1
                want = {metric["name"]: metric["unit"] for metric in declared[section]}
                got = {key: value["unit"] for key, value in result["metrics"].items()}
                assert got == want, (name, trace, sorted(set(got) ^ set(want)))
                assert all(
                    isinstance(value["value"], (int, float)) for value in result["metrics"].values()
                )
                print(f"ok: {name} --trace {trace} prints all {len(want)} {section} metrics")
    finally:
        workloads.WORKLOADS.clear()
        workloads.WORKLOADS.update(saved)


def check_wrapping() -> None:
    import repro.core.simulator as simulator
    import repro.experiments.sweep as sweep

    original = (sweep.decode_trace, simulator.compile_trace_cached)
    recorder = SpanRecorder()
    recorder.install()
    try:
        assert sweep.decode_trace is not original[0]
        assert simulator.compile_trace_cached is not original[1]
    finally:
        recorder.uninstall()
    assert (sweep.decode_trace, simulator.compile_trace_cached) == original
    print("ok: spans wrap caller-side bindings and uninstall cleanly")


def check_failures_counted(workdir: Path) -> None:
    # A wrong recorded digest fails exactly the job it belongs to.
    cold = SmokeCold(workdir / "cold", seed=3)
    cold.prepare()
    victim = workloads.job_id(cold.jobs[0])
    cold.expected = dict(cold.expected, **{victim: "0" * 16})
    result = cold.run_pass()
    assert result.failed == 1 and victim in result.problems[0], result.problems
    print("ok: a wrong result digest counts as one failed job")

    # A body unlike the local render fails every full read of it.
    read = SmokeRead(workdir / "read", seed=3)
    try:
        read.prepare()
        path = read.path("tables", "json")
        read.bodies[path] = read.bodies[path] + b" "
        result = read.run_pass()
        broken = [r for r in result.requests if r.kind == "json" and r.path == path]
        assert broken, "the smoke request mix never fully read the tampered body"
        assert result.failed == len(broken), (result.failed, len(broken))
        assert not any(r.ok for r in broken)
    finally:
        read.close()
    print(f"ok: a non-matching body counts as failed ({len(broken)} reads)")


def main() -> int:
    check_wrapping()
    workdir = ROOT / ".bench_work" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    run.configure_environment(workdir)
    try:
        check_failures_counted(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_metrics_printed()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
