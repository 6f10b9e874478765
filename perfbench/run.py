"""Benchmark of the `mmce` command line on seeded planted workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Writes the workload's inputs from the seed, then runs `mmce.cli.main` on them
in a fresh child process with BLAS/OpenMP threads set to 1. Calls go in
rounds of one call per input, repeated for S seconds (at least one round),
and every call's outputs are checked. The last line of stdout is one JSON
object: with --trace 0 it holds the end-to-end metrics that BENCHMARK.json
lists, with --trace 1 its per-layer metrics, taken from a traced call that
follows each untraced one. Full results, the environment, outputs and spans
stay in perfbench/runs/<workload>/seed-<N>/.

wall_s is the median over rounds of the round's mean call time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
SETUP_CODE = ("import time; t = time.perf_counter(); import mmce, mmce.cli; "
              "print(time.perf_counter() - t, mmce.__file__)")
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not measure: no result is printed."""


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "platform": platform.platform(),
            "threads": {var: "1" for var in THREAD_VARS}}


def measure_setup(repeats: int) -> list[float]:
    """Import time of `mmce` and `mmce.cli` in fresh processes, after one
    untimed import that fills the bytecode cache."""
    src = (ROOT / "src").resolve()
    times = []
    for _ in range(repeats + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=child_env(),
                              cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"importing mmce failed: {proc.stderr.strip()[-500:]}")
        seconds, location = proc.stdout.split(maxsplit=1)
        if not Path(location.strip()).resolve().is_relative_to(src):
            raise BenchError(f"mmce imported from {location.strip()}, not {src}")
        times.append(float(seconds))
    return times[1:]


def run_child(spec: dict, spec_path: Path) -> tuple[dict, float]:
    """Run child.py on the spec; returns (its result, its peak RSS in MB)."""
    result_path = Path(spec["result"])
    result_path.unlink(missing_ok=True)
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(spec_path)],
                            cwd=ROOT, env=child_env(), stdout=sys.stderr.fileno())
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise BenchError(f"child ran longer than {CHILD_TIMEOUT_S} s")
        time.sleep(0.05)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchError(f"child exited {proc.returncode} without a result")
    return json.loads(result_path.read_text(encoding="utf-8")), usage.ru_maxrss * 1024 / 1e6


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it."""
    n = len(samples)
    p = math.floor(100 * (1 - 10 / n)) if n > 10 else 0
    if p < 50:
        return None
    return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> dict:
    """Run one workload and return its full results.

    An untraced run uses the workload's `datasets` inputs; a traced run
    uses the first of them only.
    """
    run_dir = RUNS / workload / f"{'tiny-' if tiny else ''}seed-{seed}"
    count = 1 if trace else workloads.WORKLOADS[workload].datasets
    inputs = [workloads.make_inputs(workload, seed, k, run_dir / f"d{k}", tiny=tiny)
              for k in range(count)]
    warm_dir = run_dir / "warmup"
    warm = workloads.make_inputs(workload, seed, 0, warm_dir, tiny=True)
    try:
        setup = [] if trace else measure_setup(SETUP_REPEATS)
        spec = {"root": str(ROOT), "workload": workload, "seconds": seconds,
                "trace": trace, "result": str(run_dir / "child-result.json"),
                "warmup": workloads.commands(workload, warm, warm_dir),
                "datasets": [{"dir": str(i.labels.parent), "labels": str(i.labels),
                              "gold": str(i.gold), "mv_error_rate": i.mv_error_rate}
                             for i in inputs]}
        child, peak_rss_mb = run_child(spec, run_dir / "spec.json")
    finally:
        shutil.rmtree(warm_dir, ignore_errors=True)
        for path in [p for i in inputs for p in (i.labels, i.gold)] + [run_dir / "spec.json"]:
            path.unlink(missing_ok=True)
    rounds = child["rounds"]
    full = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "datasets": count,
        "attempted": child["attempted"], "failed": child["failed"],
        "problems": child["problems"],
        "failed_share": child["failed"] / child["attempted"],
        "wall_s": statistics.median(rounds), "wall_n": len(rounds),
        "wall_samples": rounds, "call_walls": child["calls"],
        "peak_rss_mb": peak_rss_mb,
        "environment": {**environment(), **child["versions"]},
    }
    if setup:
        full["setup_s"] = statistics.median(setup)
        full["setup_samples"] = setup
    tail = tail_percentile(rounds)
    if tail:
        full[f"wall_p{tail[0]}_s"] = tail[1]
    quality = child["quality"]
    full["error_rate"] = quality.get("error_rate")
    full["mv_error_rate"] = quality["mv_error_rate"]
    if workload == "fit-ordinal":
        full["ordinal_mse"] = quality.get("ordinal_mse")
    if workload == "select-cv":
        full["heldout_loglik"] = quality.get("heldout_loglik")
    if trace:
        full["layers"] = child["layers"]
        full["traced_calls"] = child["traced_calls"]
    (run_dir / f"result-trace{int(trace)}.json").write_text(
        json.dumps(full, indent=1), encoding="utf-8")
    return full


def contract_line(full: dict, bench: dict) -> dict:
    """The last stdout line: the metrics BENCHMARK.json lists for this mode."""
    if full["trace"]:
        specs, values = bench["per_layer"], full["layers"]
    else:
        specs, values = bench["end_to_end"], full
    missing = [m["name"] for m in specs if values.get(m["name"]) is None]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {"correct": full["failed"] == 0, "attempted": full["attempted"],
            "failed": full["failed"],
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in specs}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "mmce" / "cli.py").is_file():
            raise BenchError(f"no mmce sources under {ROOT / 'src'}")
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        full = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        line = contract_line(full, bench)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for problem in full["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
