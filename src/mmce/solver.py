"""Coordinate-ascent solver for the regularized minimax-entropy dual objective.

Alternates an exact posterior update (Bayes rule with a uniform prior, the
block maximizer in Q) with a few backtracking ascent steps on the worker/item
scores along the gradient over a fixed curvature bound. Both blocks can only
increase the objective, so the trace is non-decreasing up to float slack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .confusion import (
    Mode,
    RegularizerVariant,
    expand_ordinal,
    init_params,
    logsumexp,
    project_ordinal,
    regularizer_value_and_gradient,
)
from .data import LabelMatrix

PROB_FLOOR = 1e-300  # floor before logs; invisible at output precision

# M-step line search: trials per search, sufficient-increase factor
MAX_HALVINGS = 50
ARMIJO = 1e-4


@dataclass
class HyperParams:
    alpha: float = 1.0
    beta: float = 1.0
    mode: Mode = Mode.MULTICLASS
    variant: RegularizerVariant = RegularizerVariant.EUCLIDEAN
    max_outer_iters: int = 200
    inner_gradient_steps: int = 5
    tol: float = 1e-6
    clamp_item_params: bool = False  # freeze tau at 0 (Dawid-Skene reduction)
    exact_m_step: bool = False  # solve the M-step block to optimality via L-BFGS

    def __post_init__(self):
        self.mode = Mode(self.mode)
        self.variant = RegularizerVariant(self.variant)
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be >= 0")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_outer_iters < 1 or self.inner_gradient_steps < 1:
            raise ValueError("iteration counts must be >= 1")
        if self.variant == RegularizerVariant.CENTERED and self.mode == Mode.ORDINAL:
            raise ValueError("the centered regularizer applies to multiclass mode only")


@dataclass
class FitResult:
    posterior: np.ndarray
    worker_params: np.ndarray
    item_params: np.ndarray
    objective_trace: list[float]
    converged: bool
    iterations: int
    line_search_failures: int = 0

    @property
    def predicted(self) -> np.ndarray:
        """Deterministic labels: argmax with lowest class index on ties."""
        return np.argmax(self.posterior, axis=1)


def _log_model(labels: LabelMatrix, worker_params, item_params, mode: Mode):
    """Per-observation log-probability tables, expanding ordinal scores first.

    Returns (log_full, log_obs): log_full[l, c, k] = log P(k | c) for the
    (worker, item) pair of observation l; log_obs[l, c] = log P(x_l | c).
    """
    if mode == Mode.ORDINAL:
        worker_params = expand_ordinal(worker_params, labels.num_classes)
        item_params = expand_ordinal(item_params, labels.num_classes)
    log_full = np.take(worker_params, labels.workers, axis=0)  # (L, K, K)
    log_full += np.take(item_params, labels.items, axis=0)
    log_full -= logsumexp(log_full, axis=2, keepdims=True)
    log_obs = log_full[np.arange(labels.num_labels), :, labels.labels]
    return log_full, log_obs


def scatter_rows(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Sum the rows of `values` into `size` slots: out[index[l]] += values[l].

    One np.bincount per column, each adding in row order, so the result equals
    np.add.at on zeros exactly.
    """
    tail = values.shape[1:]
    columns = values.reshape(len(values), int(np.prod(tail)))
    out = np.empty((size, columns.shape[1]))
    for j in range(columns.shape[1]):
        out[:, j] = np.bincount(index, weights=columns[:, j], minlength=size)
    return out.reshape((size, *tail))


def _penalties(worker_params, item_params, hyper: HyperParams):
    """Regularizer values and gradients; centered applies to worker scores only."""
    ov, og = regularizer_value_and_gradient(worker_params, hyper.variant, hyper.alpha)
    pv, pg = regularizer_value_and_gradient(
        item_params, RegularizerVariant.EUCLIDEAN, hyper.beta)
    return ov, og, pv, pg


def entropy(posterior: np.ndarray) -> float:
    """Shannon entropy of the posterior rows, with 0 * log 0 = 0."""
    q = np.asarray(posterior)
    return float(-np.sum(np.where(q > 0, q * np.log(np.maximum(q, PROB_FLOOR)), 0.0)))


def _data_term(labels, posterior, log_obs) -> float:
    weighted = np.take(posterior, labels.items, axis=0)
    weighted *= log_obs
    return float(np.sum(weighted))


def penalized_likelihood(labels, posterior, worker_params, item_params,
                         hyper: HyperParams, model=None, model_out=None) -> float:
    """The objective the M-step ascends: expected log-likelihood minus penalties.

    `model` is the (log_full, log_obs) pair of `_log_model` at these scores,
    computed here when omitted. A list passed as `model_out` receives the
    model used, so a caller can reuse it at the same scores.
    """
    if model is None:
        model = _log_model(labels, worker_params, item_params, hyper.mode)
    if model_out is not None:
        model_out.append(model)
    ov, _, pv, _ = _penalties(worker_params, item_params, hyper)
    return _data_term(labels, posterior, model[1]) - ov - pv


def dual_objective(labels, posterior, worker_params, item_params,
                   hyper: HyperParams, model=None) -> float:
    """Regularized dual: expected log-likelihood + label entropy - penalties.

    `model` is the (log_full, log_obs) pair at these scores, if already computed.
    """
    return penalized_likelihood(labels, posterior, worker_params, item_params,
                                hyper, model) + entropy(posterior)


def initialize_posterior(labels: LabelMatrix) -> np.ndarray:
    """Vote-count posterior; items without labels get the uniform row."""
    n, K = labels.num_items, labels.num_classes
    counts = np.bincount(labels.items * K + labels.labels,
                         minlength=n * K).reshape(n, K).astype(float)
    totals = counts.sum(axis=1, keepdims=True)
    out = np.full((n, K), 1.0 / K)
    labeled = totals[:, 0] > 0
    out[labeled] = counts[labeled] / totals[labeled]
    return out


def e_step(labels: LabelMatrix, worker_params, item_params,
           hyper: HyperParams, model=None) -> np.ndarray:
    """Exact posterior block update: Bayes rule with a uniform prior, in log space.

    `model` is the (log_full, log_obs) pair at these scores, if already computed.
    """
    if model is None:
        model = _log_model(labels, worker_params, item_params, hyper.mode)
    log_q = scatter_rows(labels.items, model[1], labels.num_items)
    log_q -= logsumexp(log_q, axis=1, keepdims=True)
    return np.exp(log_q)


def m_step_gradients(labels: LabelMatrix, posterior, worker_params, item_params,
                     hyper: HyperParams, model=None):
    """Analytic gradients of the penalized likelihood w.r.t. both score tensors.

    The data part per observation is Q(c) * [I(x = k) - P(k | c)], accumulated
    into the observation's worker and item slots in observation order (a fixed
    reduction order, so results are reproducible). `model` is the
    (log_full, log_obs) pair at these scores, if already computed; only
    log_full is read.
    """
    K = labels.num_classes
    if posterior.shape != (labels.num_items, K):
        raise ValueError("posterior shape does not match the label matrix")
    if model is None:
        model = _log_model(labels, worker_params, item_params, hyper.mode)
    _, og, _, pg = _penalties(worker_params, item_params, hyper)
    per_obs = np.exp(model[0])  # (L, K, K), turned in place into Q(c) * [I(x = k) - P]
    np.negative(per_obs, out=per_obs)
    per_obs[np.arange(labels.num_labels), :, labels.labels] += 1.0
    per_obs *= np.take(posterior, labels.items, axis=0)[:, :, None]
    gw = scatter_rows(labels.workers, per_obs, labels.num_workers)
    gi = scatter_rows(labels.items, per_obs, labels.num_items)
    if hyper.mode == Mode.ORDINAL:
        gw = project_ordinal(gw, K)
        gi = project_ordinal(gi, K)
    gw -= og
    gi -= pg
    if hyper.clamp_item_params:
        gi = np.zeros_like(gi)
    return gw, gi


def _split(x, w_shape, i_shape):
    """Worker and item score tensors from one flat vector [worker, item]."""
    w_size = int(np.prod(w_shape))
    return x[:w_size].reshape(w_shape), x[w_size:].reshape(i_shape)


def _value_and_grad(x, labels: LabelMatrix, posterior, hyper: HyperParams,
                    w_shape, i_shape):
    """The L-BFGS objective: the negated penalized likelihood and its gradient
    at the flat scores x, both from a single model pass."""
    worker_params, item_params = _split(x, w_shape, i_shape)
    model = []
    value = penalized_likelihood(labels, posterior, worker_params, item_params, hyper,
                                 model_out=model)
    gw, gi = m_step_gradients(labels, posterior, worker_params, item_params, hyper,
                              model[0])
    return -value, -np.concatenate([gw.ravel(), gi.ravel()])


def _curvature_bound(labels: LabelMatrix, posterior, hyper: HyperParams):
    """Per-score bounds (workers, items) on the penalized likelihood's curvature:
    P(1 - P) <= 1/4 (Boehning's multinomial-logit bound, diagonal form) gives
    1/4 sum_l Q_l(c) for each dense score (c, k) of an entity, pooled onto
    ordinal scores, plus alpha or beta. No model pass is needed."""
    K = labels.num_classes
    mass = 0.25 * np.take(posterior, labels.items, axis=0)  # (L, K)
    bounds = []
    for index, size, ridge in ((labels.workers, labels.num_workers, hyper.alpha),
                               (labels.items, labels.num_items, hyper.beta)):
        dense = np.repeat(scatter_rows(index, mass, size)[:, :, None], K, axis=2)
        bounds.append((project_ordinal(dense, K) if hyper.mode == Mode.ORDINAL
                       else dense) + ridge)
    return bounds


def m_step(labels: LabelMatrix, posterior, worker_params, item_params,
           hyper: HyperParams):
    """A few backtracking ascent steps on the penalized likelihood.

    Each step moves along d = g / b, with b from `_curvature_bound` and d = 0
    where b = 0 (no mass and no penalty reach that score, so g = 0 there). It
    takes the first size t = 2**-j, j = 0 .. MAX_HALVINGS - 1, usually t = 1,
    that passes the Armijo test f(x + t d) >= f(x) + ARMIJO * t * g.d, so the
    objective cannot decrease; when none does, the line search has failed and
    the M-step stops. Each objective evaluation hands back its model, and the
    gradient at an accepted point reuses it, so every point costs one model
    pass. Returns (worker_params, item_params, line_search_failed).
    """
    wp, ip = worker_params, item_params
    bw, bi = _curvature_bound(labels, posterior, hyper)
    model = []  # out-channel: receives the model of each objective evaluation
    value = penalized_likelihood(labels, posterior, wp, ip, hyper, model_out=model)
    failed = False
    for _ in range(hyper.inner_gradient_steps):
        gw, gi = m_step_gradients(labels, posterior, wp, ip, hyper, model.pop())
        dw = np.divide(gw, bw, out=np.zeros_like(gw), where=bw > 0)
        di = np.divide(gi, bi, out=np.zeros_like(gi), where=bi > 0)
        slope = float(np.sum(gw * dw) + np.sum(gi * di))
        if slope == 0.0:
            break
        step = 1.0
        for _ in range(MAX_HALVINGS):
            cand_w, cand_i = wp + step * dw, ip + step * di
            cand_val = penalized_likelihood(labels, posterior, cand_w, cand_i, hyper,
                                            model_out=model)
            if cand_val >= value + ARMIJO * step * slope:
                wp, ip, value = cand_w, cand_i, cand_val
                break
            model.clear()  # free a failed size's model before the next evaluation
            step *= 0.5
        else:
            failed = True
            break
    return wp, ip, failed


def m_step_exact(labels: LabelMatrix, posterior, worker_params, item_params,
                 hyper: HyperParams):
    """Solve the M-step block to optimality with L-BFGS.

    The block objective is smooth and concave in the scores, so a quasi-Newton
    solve recovers the exact argmax the alternation is defined with; it also
    handles directions where the unregularized optimum runs off to infinity
    far faster than plain gradient ascent.
    """
    from scipy.optimize import minimize

    shapes = (worker_params.shape, item_params.shape)
    x0 = np.concatenate([worker_params.ravel(), item_params.ravel()])
    res = minimize(_value_and_grad, x0, args=(labels, posterior, hyper, *shapes),
                   jac=True, method="L-BFGS-B",
                   options={"maxiter": 2000, "gtol": 1e-10, "ftol": 1e-15})
    wp, ip = _split(res.x, *shapes)
    if hyper.clamp_item_params:
        ip = item_params  # gradients were zeroed; keep the clamped block intact
    return wp, ip, False


def fit(labels: LabelMatrix, hyper: HyperParams) -> FitResult:
    """Alternate M-steps and E-steps from a vote-count initialization."""
    if labels.num_labels == 0:
        raise ValueError("cannot fit an empty label matrix")
    K = labels.num_classes
    wp = init_params(hyper.mode, labels.num_workers, K)
    ip = init_params(hyper.mode, labels.num_items, K)
    posterior = initialize_posterior(labels)
    trace = [dual_objective(labels, posterior, wp, ip, hyper)]
    converged = False
    iterations = 0
    ls_failures = 0
    for it in range(1, hyper.max_outer_iters + 1):
        iterations = it
        prev = trace[-1]
        step_fn = m_step_exact if hyper.exact_m_step else m_step
        wp, ip, failed = step_fn(labels, posterior, wp, ip, hyper)
        ls_failures += failed
        # One model pass at the new scores serves both traces and the E-step;
        # it is dropped before the next M-step so two models are never alive.
        model = _log_model(labels, wp, ip, hyper.mode)
        trace.append(dual_objective(labels, posterior, wp, ip, hyper, model))
        posterior = e_step(labels, wp, ip, hyper, model)
        trace.append(dual_objective(labels, posterior, wp, ip, hyper, model))
        del model
        if abs(trace[-1] - prev) < hyper.tol * max(abs(prev), PROB_FLOOR):
            converged = True
            break
    return FitResult(
        posterior=posterior,
        worker_params=wp,
        item_params=ip,
        objective_trace=trace,
        converged=converged,
        iterations=iterations,
        line_search_failures=ls_failures,
    )


def round_posterior(posterior: np.ndarray) -> np.ndarray:
    """Deterministic posterior at the argmax label (lowest index on ties)."""
    out = np.zeros_like(posterior)
    out[np.arange(len(posterior)), np.argmax(posterior, axis=1)] = 1.0
    return out


def polish_stationary_point(labels: LabelMatrix, result: FitResult,
                            hyper: HyperParams) -> FitResult:
    """Refine fitted scores to a stationary point at the rounded posterior.

    Used by the convergence-time KL identity diagnostic, which needs the
    moment (stationarity) conditions to hold to high precision. Repeated
    L-BFGS solves are interleaved with pinning runaway scores far out (their
    optima lie at infinity and their gradients vanish there), which lets the
    interior scores be resolved to near machine precision.
    """
    from scipy.optimize import minimize

    q = round_posterior(result.posterior)
    shapes = (result.worker_params.shape, result.item_params.shape)
    x = np.concatenate([result.worker_params.ravel(), result.item_params.ravel()])
    for _ in range(3):  # three solve-then-pin rounds
        res = minimize(_value_and_grad, x, args=(labels, q, hyper, *shapes),
                       jac=True, method="L-BFGS-B",
                       options={"maxiter": 20000, "maxfun": 50000,
                                "gtol": 1e-14, "ftol": 0})
        x = res.x
        sat = np.abs(x) > 12.0  # runaway: far past any interior optimum
        x[sat] = np.sign(x[sat]) * 600.0
    wp, ip = _split(x, *shapes)
    return FitResult(posterior=q, worker_params=wp, item_params=ip,
                     objective_trace=list(result.objective_trace),
                     converged=result.converged, iterations=result.iterations)


def _label_entropy(labels: LabelMatrix, posterior, log_full) -> float:
    """H(observed labels | true labels) under the model log_full and posterior."""
    per_pair = -np.sum(np.exp(log_full) * log_full, axis=2)  # (L, K): row entropy per class
    return float(np.sum(np.take(posterior, labels.items, axis=0) * per_pair))


def kl_identity_check(labels: LabelMatrix, result: FitResult,
                      hyper: HyperParams) -> float:
    """Residual of the convergence-time KL identity for unregularized fits.

    With the posterior rounded to deterministic, the KL divergence from the
    (extended) posterior point mass to the fitted model should equal the
    conditional label entropy plus n*log K; the gap vanishes exactly when the
    fitted scores satisfy the moment (stationarity) conditions. The KL
    divergence at the point mass is -sum log P(x_l | y*) + n*log K, so the
    n*log K terms cancel and the residual is |-sum log P(x_l | y*) - H(X|Y)|.
    """
    q = round_posterior(result.posterior)
    log_full, log_obs = _log_model(labels, result.worker_params, result.item_params,
                                   hyper.mode)
    return abs(-_data_term(labels, q, log_obs) - _label_entropy(labels, q, log_full))
