"""Hyperparameter selection: the grid heuristic, k-fold likelihood CV, and
validation-set selection against known labels."""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import solver
from .confusion import Mode, RegularizerVariant
from .data import GoldLabels, LabelMatrix
from .evaluation import error_rate, mean_square_error
from .solver import PROB_FLOOR, HyperParams

DEFAULT_GAMMA_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)


@dataclass
class CVConfig:
    folds: int = 5
    gamma_grid: tuple[float, ...] = DEFAULT_GAMMA_GRID
    seed: int = 42
    mode: Mode = HyperParams.mode
    variant: RegularizerVariant = HyperParams.variant
    max_outer_iters: int = HyperParams.max_outer_iters
    tol: float = HyperParams.tol
    heldout_scoring: str = "marginal"  # or "hard": score against argmax labels

    def __post_init__(self):
        settings = self.hyper(0.0, 0.0)  # HyperParams checks the solver settings
        self.mode, self.variant = settings.mode, settings.variant
        if not isinstance(self.folds, (int, np.integer)) or isinstance(self.folds, bool):
            raise ValueError(f"folds must be an integer, got {self.folds!r}")
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if (not isinstance(self.seed, (int, np.integer)) or isinstance(self.seed, bool)
                or self.seed < 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not self.gamma_grid:
            raise ValueError("gamma grid must be non-empty")
        for gamma in self.gamma_grid:
            _check_gamma(gamma)
        if len(set(self.gamma_grid)) < len(self.gamma_grid):
            raise ValueError("gamma grid must not repeat a value")
        if self.heldout_scoring not in ("marginal", "hard"):
            raise ValueError("heldout_scoring must be 'marginal' or 'hard'")

    def hyper(self, alpha: float, beta: float) -> HyperParams:
        return HyperParams(alpha=alpha, beta=beta, mode=self.mode, variant=self.variant,
                           max_outer_iters=self.max_outer_iters, tol=self.tol)


@dataclass
class CVReport:
    gamma_grid: tuple[float, ...]
    per_fold: dict[float, list[float]]         # gamma -> score per fold
    mean_scores: dict[float, float]            # gamma -> mean score
    selected_gamma: float
    alpha: float
    beta: float
    metric: str = "heldout_loglik"
    unconverged_fits: int = 0                  # fits that stopped at max_outer_iters

    @property
    def at_edge(self) -> bool:
        """Whether the selected gamma is the smallest or the largest value of a
        grid of two or more values, so a better one may lie beyond the grid."""
        grid = self.gamma_grid
        return len(grid) >= 2 and self.selected_gamma in (min(grid), max(grid))

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"gamma,fold,{self.metric}\n")
            for g in self.gamma_grid:
                for f, v in enumerate(self.per_fold[g]):
                    fh.write(f"{g},{f},{v:.9f}\n")
            fh.write(f"# selected gamma={self.selected_gamma} "
                     f"alpha={self.alpha} beta={self.beta}\n")


def resolve_hyperparams(gamma: float, labels: LabelMatrix) -> tuple[float, float]:
    """Map a single knob to (alpha, beta): alpha scales with the squared class
    count, beta with the ratio of labels-per-worker to labels-per-item.
    Raises ValueError when gamma, or the alpha or beta it gives, is not finite."""
    _check_gamma(gamma)
    if labels.num_labels == 0 or labels.num_workers == 0 or labels.num_items == 0:
        raise ValueError("cannot resolve hyperparameters on an empty dataset")
    alpha = gamma * labels.num_classes ** 2
    per_worker = labels.num_labels / labels.num_workers
    per_item = labels.num_labels / labels.num_items
    beta = (per_worker / per_item) * alpha
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise ValueError(f"gamma={gamma:g} is too large: it gives alpha={alpha:g} "
                         f"beta={beta:g} on this dataset, and both must be finite")
    return alpha, beta


def _check_gamma(gamma: float) -> None:
    """Raise ValueError unless gamma is positive and finite."""
    if not 0 < gamma < math.inf:
        raise ValueError("gamma must be positive and finite")


def partition_folds(num_labels: int, folds: int, seed: int) -> np.ndarray:
    """Random fold assignment per observation; a true partition by construction."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(num_labels)
    assignment = np.empty(num_labels, dtype=np.int64)
    for f, chunk in enumerate(np.array_split(perm, folds)):
        assignment[chunk] = f
    return assignment


def heldout_loglik(train_fit: solver.FitResult, heldout: LabelMatrix,
                   hyper: HyperParams, scoring: str = "marginal") -> float:
    """Mean per-label predictive log-likelihood of held-out observations.

    Marginal scoring averages the fitted label distributions over the training
    posterior; hard scoring conditions on the argmax training label. Items
    unseen in training carry a uniform posterior from the E-step already.
    """
    if heldout.num_labels == 0:
        return 0.0
    _, log_obs = solver._log_model(heldout, train_fit.worker_params,
                                   train_fit.item_params, hyper.mode)  # (K, L)
    if scoring == "hard":
        ll = log_obs[train_fit.predicted[heldout.items], np.arange(heldout.num_labels)]
    else:
        log_q = np.log(np.maximum(solver.gather_rows(heldout.items, train_fit.posterior),
                                  PROB_FLOOR))
        log_q += log_obs
        ll = solver.softmax_in_place(log_q, axis=0)
    return float(np.mean(ll))


def cross_validate(labels: LabelMatrix, config: CVConfig) -> CVReport:
    """k-fold likelihood CV over the gamma grid; ties break toward smaller gamma."""
    if config.folds > labels.num_labels:
        raise ValueError(f"cannot split {labels.num_labels} labels into {config.folds} folds")
    assignment = partition_folds(labels.num_labels, config.folds, config.seed)

    def score(hyper, f):
        result = solver.fit(labels.subset(assignment != f), hyper)
        return (heldout_loglik(result, labels.subset(assignment == f), hyper,
                               config.heldout_scoring), result.converged)

    return _select(labels, config, config.folds, score, "heldout_loglik")


def validation_select(labels: LabelMatrix, gold: GoldLabels,
                      config: CVConfig) -> CVReport:
    """Pick gamma by prediction quality on known labels (error rate, or MSE in
    ordinal mode); ties break toward smaller gamma."""
    if len(gold) == 0:
        raise ValueError("validation selection needs non-empty gold labels")
    measure, metric = ((mean_square_error, "mse") if config.mode == Mode.ORDINAL
                       else (error_rate, "error_rate"))

    def score(hyper, _):
        result = solver.fit(labels, hyper)
        return measure(result.predicted, gold), result.converged

    return _select(labels, config, 1, score, metric)


def _select(labels: LabelMatrix, config: CVConfig, folds: int, score,
            metric: str) -> CVReport:
    """Score each gamma of the grid on each of `folds` folds and pick the best
    mean: the largest held-out log-likelihood or the smallest error, with ties
    going to the smaller gamma. score(hyper, fold) fits one model and returns
    its score and whether the fit converged. Every gamma is resolved before
    the first fit; the fits run through `_map`."""
    grid = tuple(config.gamma_grid)
    resolved = [resolve_hyperparams(g, labels) for g in grid]
    hypers = [config.hyper(*ab) for ab in resolved]
    results = _map(lambda i, f: score(hypers[i], f),
                   [(i, f) for i in range(len(grid)) for f in range(folds)])
    per_fold = {g: [s for s, _ in results[i * folds:(i + 1) * folds]]
                for i, g in enumerate(grid)}
    means = {g: float(np.mean(per_fold[g])) for g in grid}
    best = (max if metric == "heldout_loglik" else min)(means.values())
    selected = min(g for g in grid if means[g] == best)
    alpha, beta = resolved[grid.index(selected)]
    return CVReport(gamma_grid=grid, per_fold=per_fold, mean_scores=means,
                    selected_gamma=selected, alpha=alpha, beta=beta, metric=metric,
                    unconverged_fits=sum(not converged for _, converged in results))


def _usable_cpus() -> int:
    """The CPUs this process may run on, as `taskset` limits them; 1 where the
    platform cannot fork or cannot tell."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


# The task of the running `_map`. It is set before the workers fork, so they
# inherit it with everything it reads (the labels, the folds); only task
# arguments and results are pickled.
_task = [None]


def _run_task(*args):
    return _task[0](*args)


def _map(task, args: list) -> list:
    """[task(*a) for a in args], in order.

    With two or more usable CPUs the tasks run in forked worker processes, one
    task at a time each, and the results are collected in task order, so the
    outcome is the one a serial run gives. A task that raises fails the map
    with its exception, and the tasks still pending are cancelled. No worker
    outlives the call, whether it returns or raises. A process with more than
    one thread runs the tasks itself: a fork copies only the calling thread,
    so a lock held by another thread would stay held in the workers. So does
    a process whose `solver.fit` has been wrapped (`functools.wraps` marks a
    wrapper with `__wrapped__`), as a tracer or profiler does: the wrapper
    records into this process's memory, where a worker's calls would be lost.
    """
    workers = min(len(args), _usable_cpus())
    if (workers < 2 or threading.active_count() > 1
            or hasattr(solver.fit, "__wrapped__")):
        return [task(*a) for a in args]
    import multiprocessing  # here, so that a serial run never loads it
    from concurrent.futures import ProcessPoolExecutor

    _task[0] = task
    try:
        with ProcessPoolExecutor(workers, multiprocessing.get_context("fork")) as pool:
            return list(pool.map(_run_task, *zip(*args)))
    finally:
        _task[0] = None
