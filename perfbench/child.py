"""Runs one workload's calls in a fresh process; `run.py` starts it.

Usage: python3 perfbench/child.py SPEC.json

The spec names the checkout, the workload, its inputs and how long to
measure. Calls go in rounds of one call per input; rounds repeat until the
time is up (at least one). With tracing on there is a single input, and each
untraced call is followed by a traced one. Every call's outputs are checked
outside the timed region. Samples, checks and per-layer metrics go to the
spec's result file as JSON; spans of the last traced call go to spans.json.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import time
from pathlib import Path

import tracer
import workloads


def _call(cli, commands) -> tuple[float, list[int], str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        codes = [cli.main(argv) for argv in commands]
        wall = time.perf_counter() - start
    return wall, codes, out.getvalue()


def _counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


class Runner:
    """Makes checked calls on one input and keeps their results."""

    def __init__(self, cli, name: str, run_dir: Path, inputs: workloads.Inputs):
        self.cli, self.name, self.run_dir, self.inputs = cli, name, run_dir, inputs
        self.commands = workloads.commands(name, inputs, run_dir)
        self.outputs = list(workloads.outputs(name, run_dir).values())
        self.problems: list[str] = []
        self.attempted = self.failed = 0
        self.quality: dict = {}
        self.layers: list[dict] = []
        self.spans: list = []

    def call(self, trace: bool = False) -> float:
        """One checked call; returns its wall seconds."""
        for path in self.outputs:  # a failed call must not pass on stale outputs
            path.unlink(missing_ok=True)
        if trace:
            with tracer.Tracer() as t:
                wall, codes, text = _call(self.cli, self.commands)
        else:
            wall, codes, text = _call(self.cli, self.commands)
        found, self.quality = workloads.check(self.name, self.inputs, self.run_dir,
                                              codes, text)
        if trace:
            self.spans = t.spans
            metrics, mismatches = tracer.layer_metrics(t.spans)
            found += mismatches
            if self.layers and _counts(metrics) != _counts(self.layers[0]):
                found.append("counters differ between traced calls on the same input")
            self.layers.append(metrics)
        self.attempted += 1
        self.failed += bool(found)
        self.problems += found
        return wall


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = Path(spec["root"]) / "src"
    sys.path.insert(0, str(src))
    import mmce.cli as cli
    import numpy
    import scipy

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"mmce imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 3
    for argv in spec["warmup"]:  # untimed: loads lazy imports and fills caches
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
    runners = [Runner(cli, spec["workload"], Path(d["dir"]),
                      workloads.Inputs(Path(d["labels"]), Path(d["gold"]),
                                       workloads.read_gold(Path(d["gold"])),
                                       d["mv_error_rate"]))
               for d in spec["datasets"]]

    rounds, calls, traced = [], [], []
    start = time.perf_counter()
    while True:
        walls = [r.call() for r in runners]
        calls += walls
        rounds.append(statistics.fmean(walls))
        if spec["trace"]:
            traced.append(runners[0].call(trace=True))
        if time.perf_counter() - start >= spec["seconds"]:
            break

    quality = {k: statistics.fmean(r.quality[k] for r in runners)
               for k in runners[0].quality if all(k in r.quality for r in runners)}
    result = {
        "rounds": rounds,
        "calls": calls,
        "attempted": sum(r.attempted for r in runners),
        "failed": sum(r.failed for r in runners),
        "problems": [p for r in runners for p in r.problems][:20],
        "quality": quality,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if spec["trace"]:
        first = runners[0]
        with open(first.run_dir / "spans.json", "w", encoding="utf-8") as fh:
            json.dump([[s.id, s.parent, s.name, s.start, s.end, s.attrs]
                       for s in first.spans], fh)
        layers = {k: (statistics.median(m[k] for m in first.layers) if k.endswith("_s")
                      else first.layers[0][k]) for k in first.layers[0]}
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(calls)
        result["layers"] = layers
        result["traced_calls"] = traced
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
