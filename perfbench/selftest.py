"""Tiny-size self-test of the benchmark.

Usage, from the root of a checkout: python3 perfbench/selftest.py

Runs every workload at tiny size: twice traced with one seed, once untraced.
Checks that every call passes its output checks, that each run yields every
metric BENCHMARK.json lists, that the counters repeat exactly across the two
traced runs, and that each layer is exercised on the workloads meant to
exercise it. Exits 0 when all of that holds. Takes about half a minute.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

SEED = 3

# Counter expectations that tie each layer to the workloads it should show on.
EXPECT = {
    "fit-multiclass": {"solver.fit_calls": 1, "confusion.expand_calls": 0,
                       "selection.fits": 0, "data.gold_s": 0},
    "fit-ordinal": {"solver.fit_calls": 1, "selection.fits": 0},
    "select-cv": {"selection.fits": 25, "solver.fit_calls": 26,
                  "selection.heldout_calls": 25},
    "ingest": {"solver.fit_calls": 0, "solver.model_evals": 0,
               "selection.fits": 0},
}
NONZERO = {
    "fit-multiclass": ("solver.model_evals", "solver.linesearch_evals", "data.write_s"),
    "fit-ordinal": ("confusion.expand_calls", "confusion.project_calls"),
    "select-cv": ("selection.fit_iters", "selection.heldout_s"),
    "ingest": ("data.read_s", "data.gold_s", "baselines.mv_s", "evaluation.evaluate_s"),
}


def check_workload(name: str, bench: dict) -> list[str]:
    problems = []
    traced = [run.measure(name, SEED, seconds=0, trace=True, tiny=True) for _ in range(2)]
    untraced = run.measure(name, SEED, seconds=0, trace=False, tiny=True)
    for full in (*traced, untraced):
        problems += [f"check failed: {p}" for p in full["problems"]]
        try:
            run.contract_line(full, bench)
        except run.BenchError as exc:
            problems.append(str(exc))
    counts = [{k: v for k, v in t["layers"].items() if not k.endswith("_s")}
              for t in traced]
    if counts[0] != counts[1]:
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
        problems.append(f"counters differ between runs of one seed: {diff}")
    layers = traced[0]["layers"]
    for key, want in EXPECT[name].items():
        if layers[key] != want:
            problems.append(f"{key} = {layers[key]}, expected {want}")
    for key in NONZERO[name]:
        if not layers[key] > 0:
            problems.append(f"{key} = {layers[key]}, expected > 0")
    return problems


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [w["name"] for w in bench["workloads"]] != list(workloads.WORKLOADS):
        print("BENCHMARK.json workloads differ from workloads.py")
        return 1
    failed = False
    for name in workloads.WORKLOADS:
        problems = check_workload(name, bench)
        failed |= bool(problems)
        print(f"{name}: {'FAIL' if problems else 'ok'}")
        for p in problems:
            print(f"  {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
