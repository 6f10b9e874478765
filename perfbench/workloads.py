"""Seeded planted workloads and the checks on their outputs.

A workload writes its inputs (a labels CSV and a gold CSV) into a run
directory, names the `mmce` command lines that make up one timed call, and
checks what those commands wrote. A run uses `datasets` inputs, which depend
only on the workload, the seed and their index; averaging over them damps the
seed-to-seed spread in iteration and line-search counts. Worker accuracies are
evenly spaced over the stated range and assigned to workers in a seeded order,
so each seed draws a new realisation of the same population rather than a new
population.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Shape:
    workers: int
    items: int
    per_item: int  # labels per item; equal to `workers` for a dense design


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    classes: int
    confusion: str  # "uniform" | "adjacent" | "two-coin"
    accuracy: tuple[float, float]
    datasets: int  # inputs per run, averaged to damp seed-to-seed spread
    full: Shape
    tiny: Shape


WORKLOADS = {w.name: w for w in (
    Workload(
        "fit-multiclass",
        "aggregate --gamma 1 at web scale (L=20k, K=3): the M-step's (L,K,K) "
        "model evaluations dominate, so kernel changes show here",
        classes=3, confusion="uniform", accuracy=(0.55, 0.85), datasets=1,
        full=Shape(100, 4000, 5), tiny=Shape(12, 40, 3)),
    Workload(
        "fit-ordinal",
        "aggregate --mode ordinal on a 5-point scale with adjacent-grade errors: "
        "the only workload that runs expand_ordinal/project_ordinal",
        classes=5, confusion="adjacent", accuracy=(0.55, 0.85), datasets=5,
        full=Shape(60, 800, 5), tiny=Shape(10, 30, 3)),
    Workload(
        "select-cv",
        "select --fit-final, default 5x5 CV grid, dense binary design shaped like "
        "bluebirds (39x108): many small fits bound by per-call overhead",
        classes=2, confusion="two-coin", accuracy=(0.6, 0.95), datasets=2,
        full=Shape(39, 108, 39), tiny=Shape(6, 12, 6)),
    Workload(
        "ingest",
        "aggregate --method mv on a 500k-line CSV, then evaluate --bins: data "
        "load/write/read and gold join do the work; the solver is bypassed",
        classes=4, confusion="uniform", accuracy=(0.55, 0.85), datasets=1,
        full=Shape(2000, 100000, 5), tiny=Shape(20, 50, 3)),
)}

GAMMA_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)  # the CLI's default grid
CV_FOLDS = 5  # the CLI's default fold count
ROW_SUM_TOL = 1e-5
TRACE_SLACK_ABS = 1e-9  # the trace is written with 9 decimals
TRACE_SLACK_REL = 1e-10


@dataclass(frozen=True)
class Inputs:
    labels: Path
    gold: Path
    truth: dict  # item id -> true class
    mv_error_rate: float


def _rng(name: str, seed: int, index: int) -> np.random.Generator:
    salt = sum(ord(ch) * 31 ** i for i, ch in enumerate(name)) % 2 ** 32
    return np.random.default_rng([seed & (2 ** 64 - 1), salt, index])  # any int seed


def _assign_workers(rng, shape: Shape) -> tuple[np.ndarray, np.ndarray]:
    """Distinct workers per item: a random start plus strictly increasing
    offsets that stay below the worker count."""
    m, n, r = shape.workers, shape.items, shape.per_item
    items = np.repeat(np.arange(n), r)
    if r == m:
        return np.tile(np.arange(m), n), items
    gap = m // r
    offsets = np.cumsum(rng.integers(1, gap + 1, size=(n, r)), axis=1) - 1
    start = rng.integers(m, size=(n, 1))
    return ((start + offsets) % m).ravel(), items


def _draw_labels(rng, w: Workload, truth, workers, items, accuracy):
    K = w.classes
    c = truth[items]
    if w.confusion == "two-coin":  # accuracy is (sensitivity, specificity)
        p_right = np.where(c == 1, accuracy[0][workers], accuracy[1][workers])
    else:
        p_right = accuracy[workers]
    right = rng.random(len(c)) < p_right
    if w.confusion == "adjacent":
        wrong = c + np.where(rng.random(len(c)) < 0.5, -1, 1)
        wrong = np.where(wrong < 0, 1, np.where(wrong >= K, K - 2, wrong))
    else:
        wrong = (c + rng.integers(1, K, size=len(c))) % K
    return np.where(right, c, wrong)


def majority_error(workers_items_labels, truth, n, K) -> float:
    """Error of plain majority vote (lowest class on ties) against the truth."""
    _, items, labels = workers_items_labels
    votes = np.bincount(items * K + labels, minlength=n * K).reshape(n, K)
    return float(np.mean(np.argmax(votes, axis=1) != truth))


def make_inputs(name: str, seed: int, index: int, run_dir: Path,
                tiny: bool = False) -> Inputs:
    """Write input `index` of the seed's inputs: labels.csv, with rows in
    seeded order, and gold.csv."""
    w = WORKLOADS[name]
    shape = w.tiny if tiny else w.full
    rng = _rng(name, seed, index)
    lo, hi = w.accuracy
    spaced = lo + (hi - lo) * (np.arange(shape.workers) + 0.5) / shape.workers
    accuracy = rng.permutation(spaced)
    if w.confusion == "two-coin":
        accuracy = (accuracy, rng.permutation(spaced))
    truth = rng.integers(w.classes, size=shape.items)
    workers, items = _assign_workers(rng, shape)
    labels = _draw_labels(rng, w, truth, workers, items, accuracy)
    order = rng.permutation(len(labels))
    workers, items, labels = workers[order], items[order], labels[order]
    run_dir.mkdir(parents=True, exist_ok=True)
    labels_path, gold_path = run_dir / "labels.csv", run_dir / "gold.csv"
    with open(labels_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("worker,item,label\n")
        fh.write("".join(f"w{a},i{b},{c}\n" for a, b, c in
                         zip(workers.tolist(), items.tolist(), labels.tolist())))
    with open(gold_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("item,label\n")
        fh.write("".join(f"i{j},{c}\n" for j, c in enumerate(truth.tolist())))
    return Inputs(labels_path, gold_path,
                  {f"i{j}": c for j, c in enumerate(truth.tolist())},
                  majority_error((workers, items, labels), truth, shape.items, w.classes))


def outputs(name: str, run_dir: Path) -> dict:
    """Paths of the files the workload's commands write."""
    if name == "select-cv":
        return {"cv": run_dir / "cv.csv", "posterior": run_dir / "cv.csv.posterior.tsv"}
    out = {"posterior": run_dir / "posterior.tsv"}
    if name == "ingest":
        out["eval"] = run_dir / "eval.csv"
    else:
        out["trace"] = run_dir / "trace.csv"
    return out


def commands(name: str, inputs: Inputs, run_dir: Path) -> list[list[str]]:
    """The `mmce` argv lists of one call, run in order."""
    K = str(WORKLOADS[name].classes)
    out = {k: str(v) for k, v in outputs(name, run_dir).items()}
    common = ["--labels", str(inputs.labels), "--classes", K]
    if name == "select-cv":
        return [["select", *common, "--out", out["cv"], "--fit-final"]]
    if name == "ingest":
        return [["aggregate", *common, "--method", "mv", "--out", out["posterior"]],
                ["evaluate", "--predictions", out["posterior"], "--gold",
                 str(inputs.gold), "--bins", "--out", out["eval"]]]
    mode = ["--mode", "ordinal"] if name == "fit-ordinal" else []
    return [["aggregate", *common, *mode, "--gamma", "1", "--out", out["posterior"],
             "--trace", out["trace"]]]


def read_posterior(path: Path):
    """(item ids, predicted labels, posterior rows) from a posterior TSV."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        rows = [line.rstrip("\n").split("\t") for line in fh if line.strip()]
    if header[:2] != ["item", "predicted"]:
        raise ValueError(f"{path.name}: bad header {header[:2]}")
    if any(len(r) != len(header) for r in rows):
        raise ValueError(f"{path.name}: ragged rows")
    ids = [r[0] for r in rows]
    predicted = np.array([int(r[1]) for r in rows], dtype=np.int64)
    posterior = np.array([[float(p) for p in r[2:]] for r in rows]).reshape(len(rows), -1)
    return ids, predicted, posterior


def read_gold(path: Path) -> dict:
    """{item id: true class} from a gold CSV with a header line."""
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        return {i: int(c) for i, c in (line.strip().split(",") for line in fh if line.strip())}


def read_trace(path: Path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        if fh.readline().strip() != "iter,phase,objective":
            raise ValueError(f"{path.name}: bad header")
        return np.array([float(line.rsplit(",", 1)[1]) for line in fh if line.strip()])


def read_cv(path: Path) -> tuple[dict, float]:
    """({gamma: [score per fold]}, selected gamma) from a CV report CSV."""
    scores: dict[float, list[float]] = {}
    selected = None
    with open(path, encoding="utf-8") as fh:
        if fh.readline().strip() != "gamma,fold,heldout_loglik":
            raise ValueError(f"{path.name}: bad header")
        for line in fh:
            if line.startswith("# selected gamma="):
                selected = float(line.split()[2].split("=")[1])
                continue
            g, f, v = line.strip().split(",")
            if int(f) != len(scores.setdefault(float(g), [])):
                raise ValueError(f"{path.name}: folds out of order for gamma {g}")
            scores[float(g)].append(float(v))
    if selected is None:
        raise ValueError(f"{path.name}: no selected gamma")
    return scores, selected


def _check_cv(path: Path, problems: list[str]) -> float:
    scores, selected = read_cv(path)
    if tuple(scores) != GAMMA_GRID:
        problems.append(f"cv grid {tuple(scores)} != {GAMMA_GRID}")
    if any(len(v) != CV_FOLDS or not all(map(math.isfinite, v)) for v in scores.values()):
        problems.append("cv report lacks a finite score per fold")
        return math.nan
    means = {g: sum(v) / len(v) for g, v in scores.items()}
    if selected not in means:
        problems.append(f"selected gamma {selected} not in the grid")
        return math.nan
    # Scores are written with 9 decimals, so near-ties may reorder.
    if means[selected] < max(means.values()) - 1e-8:
        problems.append("selected gamma does not have the best mean score")
    return means[selected]


def check(name: str, inputs: Inputs, run_dir: Path, exit_codes: list[int],
          cli_stdout: str) -> tuple[list[str], dict]:
    """Check one call's outputs. Returns (problems, quality metrics)."""
    w = WORKLOADS[name]
    problems = [f"command {i} exited {c}" for i, c in enumerate(exit_codes) if c != 0]
    paths = outputs(name, run_dir)
    quality: dict[str, float] = {}
    try:
        ids, predicted, posterior = read_posterior(paths["posterior"])
        if sorted(ids) != sorted(inputs.truth) or len(set(ids)) != len(ids):
            problems.append("posterior rows do not match the items one to one")
        if posterior.shape[1] != w.classes:
            problems.append(f"posterior has {posterior.shape[1]} columns, not {w.classes}")
        elif len(ids):
            if np.max(np.abs(posterior.sum(axis=1) - 1.0)) > ROW_SUM_TOL:
                problems.append("a posterior row does not sum to 1")
            best = posterior[np.arange(len(ids)), np.clip(predicted, 0, w.classes - 1)]
            if np.any(predicted < 0) or np.any(best < posterior.max(axis=1) - 1e-6):
                problems.append("a predicted label is not the posterior argmax")
            truth = np.array([inputs.truth.get(i, -1) for i in ids])
            quality["error_rate"] = float(np.mean(predicted != truth))
            quality["ordinal_mse"] = float(np.mean((predicted - truth) ** 2.0))
        if "trace" in paths:
            trace = read_trace(paths["trace"])
            slack = TRACE_SLACK_ABS + TRACE_SLACK_REL * np.abs(trace[:-1])
            if len(trace) < 3 or np.any(np.diff(trace) < -slack):
                problems.append("objective trace is short or decreases")
        if "cv" in paths:
            quality["heldout_loglik"] = _check_cv(paths["cv"], problems)
        if name == "ingest" and quality.get("error_rate") != inputs.mv_error_rate:
            problems.append("majority vote disagrees with a reference vote count")
        if "eval" in paths and "error_rate" in quality:
            printed = [ln for ln in cli_stdout.splitlines() if ln.startswith("error rate")]
            shown = float(printed[-1].split()[-1].rstrip("%")) / 100 if printed else math.nan
            if not abs(shown - quality["error_rate"]) <= 5.01e-5:  # printed as xx.xx%
                problems.append(f"evaluate printed error rate {shown}, "
                                f"expected {quality['error_rate']:.6f}")
    except (OSError, ValueError, IndexError) as exc:
        problems.append(f"unreadable output: {exc}")
    quality["mv_error_rate"] = inputs.mv_error_rate
    return problems, quality
