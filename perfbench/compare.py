"""Compare the outputs that two sets of benchmark runs kept.

Usage: python3 perfbench/compare.py RUNS_A RUNS_B

RUNS_A and RUNS_B are `perfbench/runs` directories, for example of a parent
commit's checkout and of a change's. For every workload and seed run in both,
it compares the posterior files item by item, the objective traces and the
CV scores. It prints one line per workload with the largest absolute
posterior difference, the number of items whose predicted label differs and
the largest relative trace and CV-score differences. The last line is the
same as one JSON object.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

import workloads


def _posterior_diff(a: Path, b: Path) -> tuple[float, int]:
    ids_a, pred_a, post_a = workloads.read_posterior(a)
    ids_b, pred_b, post_b = workloads.read_posterior(b)
    if sorted(ids_a) != sorted(ids_b) or post_a.shape != post_b.shape:
        raise ValueError(f"{a} and {b} cover different items or classes")
    order = {item: k for k, item in enumerate(ids_b)}
    rows = np.array([order[item] for item in ids_a], dtype=np.int64)
    delta = float(np.max(np.abs(post_a - post_b[rows]))) if len(rows) else 0.0
    return delta, int(np.sum(pred_a != pred_b[rows]))


def _relative_diff(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        return float("inf")
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(a), 1.0))) if a.size else 0.0


def compare_outputs(name: str, dir_a: Path, dir_b: Path) -> dict:
    out_a, out_b = workloads.outputs(name, dir_a), workloads.outputs(name, dir_b)
    delta, flips = _posterior_diff(out_a["posterior"], out_b["posterior"])
    row = {"max_abs_posterior_diff": delta, "predicted_label_diffs": flips}
    if "trace" in out_a:
        row["max_rel_trace_diff"] = _relative_diff(workloads.read_trace(out_a["trace"]),
                                                   workloads.read_trace(out_b["trace"]))
    if "cv" in out_a:
        (scores_a, gamma_a), (scores_b, gamma_b) = (workloads.read_cv(out_a["cv"]),
                                                    workloads.read_cv(out_b["cv"]))
        row["max_rel_cv_diff"] = _relative_diff(np.array(list(scores_a.values())),
                                                np.array(list(scores_b.values())))
        row["selected_gamma_diffs"] = int(gamma_a != gamma_b)
    return row


def compare(runs_a: Path, runs_b: Path) -> dict:
    report = {}
    for name in workloads.WORKLOADS:
        rows = []
        for dir_a in sorted((runs_a / name).glob("seed-*/d*")):
            dir_b = runs_b / dir_a.relative_to(runs_a)
            try:
                rows.append(compare_outputs(name, dir_a, dir_b))
            except FileNotFoundError:
                continue  # these outputs were not kept on one side
        if rows:
            worst = {k: max(r[k] for r in rows) for k in rows[0]}
            report[name] = {"inputs": len(rows), **worst}
    return report


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    report = compare(Path(argv[0]), Path(argv[1]))
    for name, row in report.items():
        print(name, " ".join(f"{k}={v:.3g}" for k, v in row.items()))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
