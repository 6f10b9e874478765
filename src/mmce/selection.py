"""Hyperparameter selection: the grid heuristic, k-fold likelihood CV, and
validation-set selection against known labels."""

from __future__ import annotations

import math
import os
import pickle
import struct
import threading
import traceback
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


# One task index in the deal pipe of `_map`. Every read takes one whole record,
# so each task goes to exactly one process.
_RECORD = struct.Struct("=I")
# Tasks dealt per fork: 4 KiB of records, which any pipe holds unread, so the
# records are all written before a worker starts.
_DEAL = 1024


def _map(task, args: list) -> list:
    """[task(*a) for a in args], in order.

    With two or more usable CPUs the calling process forks one worker for each
    further CPU and takes tasks alongside them. Every task index is written
    to a pipe before the fork, and each process reads the next one whenever
    it is free, so a slow task holds up only its own process. Each worker
    sends its results back pickled, through a pipe of its own, once the task
    pipe is empty; the caller reads them, reaps the worker and puts the
    results in task order, so the outcome is the one a serial run gives.

    A process whose task raises empties the task pipe, so no further task
    starts, and the call raises the exception of the lowest-numbered task
    that raised, as a serial run does. A worker that dies, or sends results
    that cannot be read, fails the call with a RuntimeError that names its
    exit status (not an OSError, which the command line reports as a usage
    error). No worker outlives the call, whether it returns or raises.

    When a pipe or a fork fails (out of processes or file descriptors), no
    further worker starts and the processes already running take every task,
    with the same outcome; without a task pipe the caller runs them all.

    A process with more than one thread runs the tasks itself: a fork copies
    only the calling thread, so a lock held by another thread would stay held
    in the workers. So does a process whose `solver.fit` has been wrapped
    (`functools.wraps` marks a wrapper with `__wrapped__`), as a tracer or
    profiler does: the wrapper records into this process's memory, where a
    worker's calls would be lost.
    """
    workers = min(len(args), _usable_cpus())
    if (workers < 2 or threading.active_count() > 1
            or hasattr(solver.fit, "__wrapped__")):
        return [task(*a) for a in args]
    if len(args) > _DEAL:
        return [result for start in range(0, len(args), _DEAL)
                for result in _map(task, args[start:start + _DEAL])]
    try:
        deal, dealer = os.pipe()
    except OSError:  # nothing to deal through
        return [task(*a) for a in args]
    os.write(dealer, b"".join(_RECORD.pack(i) for i in range(len(args))))
    os.close(dealer)
    children = {}  # pid -> the read end of its result pipe, until it is reaped
    try:
        for _ in range(workers - 1):
            fds = ()
            try:
                fds = os.pipe()
                pid = os.fork()
            except OSError:  # no more workers: the caller and those started take the tasks
                for fd in fds:
                    os.close(fd)
                break
            if pid == 0:
                _work(task, args, deal, fds[1])
            os.close(fds[1])
            children[pid] = open(fds[0], "rb")
        records = _take(task, args, deal)
        for pid, pipe in list(children.items()):
            with pipe:
                sent = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            try:
                records += pickle.loads(sent)
            except Exception:
                raise RuntimeError(f"a worker process ended with exit status {status} "
                                   "without sending its results")
        records.sort(key=lambda record: record[0])
        for _, raised, value in records:
            if raised:
                raise value
        return [value for _, _, value in records]
    finally:
        os.close(deal)
        for pid, pipe in children.items():  # left when the call fails before reaping them
            import signal  # here, so that only this rare path loads it

            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _take(task, args: list, deal: int) -> list:
    """Run the tasks dealt from the pipe `deal` until it is empty; returns an
    (index, raised, result or exception) record per task run. A task that
    raises empties the pipe, so that no further task starts."""
    records = []
    while record := os.read(deal, _RECORD.size):
        (i,) = _RECORD.unpack(record)
        try:
            records.append((i, False, task(*args[i])))
        except Exception as exc:
            records.append((i, True, exc))
            while os.read(deal, _DEAL * _RECORD.size):
                pass
    return records


def _work(task, args: list, deal: int, out: int):
    """A forked worker of `_map`: take tasks, write their records pickled to
    `out`, and end through `os._exit` on every path, so that nothing the
    parent set up (exit handlers, buffered output) runs twice."""
    status = 1
    try:
        with open(out, "wb") as fh:
            fh.write(pickle.dumps(_take(task, args, deal)))
        status = 0
    except BaseException:
        traceback.print_exc()
    finally:
        os._exit(status)
