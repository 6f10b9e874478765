"""Hyperparameter selection: the grid heuristic, k-fold likelihood CV, and
validation-set selection against known labels."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import solver
from .confusion import Mode, RegularizerVariant, logsumexp
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
    inner_gradient_steps: int = HyperParams.inner_gradient_steps
    tol: float = HyperParams.tol
    heldout_scoring: str = "marginal"  # or "hard": score against argmax labels

    def __post_init__(self):
        self.mode = Mode(self.mode)
        self.variant = RegularizerVariant(self.variant)
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if not self.gamma_grid:
            raise ValueError("gamma grid must be non-empty")
        if len(set(self.gamma_grid)) < len(self.gamma_grid):
            raise ValueError("gamma grid must not repeat a value")
        if self.heldout_scoring not in ("marginal", "hard"):
            raise ValueError("heldout_scoring must be 'marginal' or 'hard'")

    def hyper(self, alpha: float, beta: float) -> HyperParams:
        return HyperParams(alpha=alpha, beta=beta, mode=self.mode, variant=self.variant,
                           max_outer_iters=self.max_outer_iters,
                           inner_gradient_steps=self.inner_gradient_steps, tol=self.tol)


@dataclass
class CVReport:
    gamma_grid: tuple[float, ...]
    per_fold: dict[float, list[float]]         # gamma -> score per fold
    mean_scores: dict[float, float]            # gamma -> mean score
    selected_gamma: float
    alpha: float
    beta: float
    metric: str = "heldout_loglik"

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
    if not 0 < gamma < math.inf:
        raise ValueError("gamma must be positive and finite")
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
        ll = logsumexp(log_obs + log_q, axis=0)
    return float(np.mean(ll))


def cross_validate(labels: LabelMatrix, config: CVConfig) -> CVReport:
    """k-fold likelihood CV over the gamma grid; ties break toward smaller gamma."""
    if config.folds > labels.num_labels:
        raise ValueError(f"cannot split {labels.num_labels} labels into {config.folds} folds")
    assignment = partition_folds(labels.num_labels, config.folds, config.seed)
    per_fold: dict[float, list[float]] = {g: [] for g in config.gamma_grid}
    resolved = {g: resolve_hyperparams(g, labels) for g in config.gamma_grid}
    for g in config.gamma_grid:
        alpha, beta = resolved[g]
        hyper = config.hyper(alpha, beta)
        for f in range(config.folds):
            train = labels.subset(assignment != f)
            held = labels.subset(assignment == f)
            result = solver.fit(train, hyper)
            per_fold[g].append(heldout_loglik(result, held, hyper,
                                              config.heldout_scoring))
    means = {g: float(np.mean(per_fold[g])) for g in config.gamma_grid}
    best = max(means.values())
    selected = min(g for g in config.gamma_grid if means[g] == best)
    alpha, beta = resolved[selected]
    return CVReport(gamma_grid=tuple(config.gamma_grid), per_fold=per_fold,
                    mean_scores=means, selected_gamma=selected,
                    alpha=alpha, beta=beta)


def validation_select(labels: LabelMatrix, gold: GoldLabels,
                      config: CVConfig) -> CVReport:
    """Pick gamma by prediction quality on known labels (error rate, or MSE in
    ordinal mode); ties break toward smaller gamma."""
    if len(gold) == 0:
        raise ValueError("validation selection needs non-empty gold labels")
    metric = "mse" if config.mode == Mode.ORDINAL else "error_rate"
    scores: dict[float, float] = {}
    resolved = {g: resolve_hyperparams(g, labels) for g in config.gamma_grid}
    for g in config.gamma_grid:
        alpha, beta = resolved[g]
        result = solver.fit(labels, config.hyper(alpha, beta))
        if metric == "mse":
            scores[g] = mean_square_error(result.predicted, gold)
        else:
            scores[g] = error_rate(result.predicted, gold)
    best = min(scores.values())
    selected = min(g for g in config.gamma_grid if scores[g] == best)
    alpha, beta = resolved[selected]
    return CVReport(gamma_grid=tuple(config.gamma_grid),
                    per_fold={g: [scores[g]] for g in config.gamma_grid},
                    mean_scores=scores, selected_gamma=selected,
                    alpha=alpha, beta=beta, metric=metric)
