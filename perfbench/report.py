"""Print every end-to-end metric of every workload, with units.

Usage, from the root of a checkout:

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs each workload in turn, untraced, exactly as run.py does (one child
process each), and prints one row per workload and metric: the metrics that
BENCHMARK.json bounds and those it cannot bound because they are 0 or exist
on one workload only, with the units layers.json gives them. Exits 1 if any
check failed.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads


def rows(full: dict, units: dict) -> list[tuple[str, float, str]]:
    out = [(k, full[k], unit) for k, unit in units.items() if k in full]
    out.append(("wall_n", full["wall_n"], "count"))
    out += [(k, full[k], "s") for k in full if k.startswith("wall_p")]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layers = json.loads((run.HERE / "layers.json").read_text(encoding="utf-8"))
    units = {k: v["unit"] for k, v in layers["end_to_end"].items()}
    units["mv_error_rate"] = units["error_rate"]
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    failed = 0
    print(f"{'workload':<16} {'metric':<16} {'value':>14}  unit")
    for name in workloads.WORKLOADS:
        full = run.measure(name, args.seed, args.seconds, trace=False)
        failed += full["failed"]
        for metric, value, unit in rows(full, units):
            value = float("nan") if value is None else value
            print(f"{name:<16} {metric:<16} {value:>14.6g}  {unit}")
        for problem in full["problems"]:
            print(f"{name:<16} check failed: {problem}")
    env = full["environment"]
    print(f"# {env['cpu_model']}, nproc {env['nproc']}, python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, BLAS/OpenMP threads 1")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
