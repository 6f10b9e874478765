"""Coordinate-ascent solver for the regularized minimax-entropy dual objective.

Alternates an exact posterior update (Bayes rule with a uniform prior, the
block maximizer in Q) with a few backtracking ascent steps on the worker/item
scores along the gradient over a fixed curvature bound. Both blocks can only
increase the objective, so the trace is non-decreasing up to float slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .confusion import (
    Mode,
    RegularizerVariant,
    expand_ordinal,
    init_params,
    logsumexp,
    project_ordinal,
    regularizer_gradient,
    regularizer_value,
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
        if not (0 <= self.alpha < math.inf and 0 <= self.beta < math.inf):
            raise ValueError("alpha and beta must be finite and >= 0")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
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


def _log_model(labels: LabelMatrix, worker_params, item_params, mode: Mode,
               obs_index=None):
    """The labeling model at every observation, stored class-major.

    Returns (prob, log_obs), both C-contiguous with the observation axis last:
    prob[c, k, l] = P(k | c), shape (K, K, L), and log_obs[c, l] = log P(x_l | c),
    shape (K, L), for the (worker, item) pair of observation l. Ordinal scores
    are expanded first. Each (c, k) row is one contiguous run over the
    observations, so the normalizer works on whole (K, L) slices and P comes
    from the one exp pass the normalizer needs. log_obs is z[x_l] - (log(sum_k
    exp(z_k - top)) + top) of the logits z and their max, summed in class order.
    The score tensors themselves keep their (entity, c, k) layout. obs_index is
    `_label_constants`' x_l * L + l, built here when not given.
    """
    K, L = labels.num_classes, labels.num_labels
    if obs_index is None:
        obs_index = _label_constants(labels)[1]
    if mode == Mode.ORDINAL:
        worker_params = expand_ordinal(worker_params, K)
        item_params = expand_ordinal(item_params, K)
    # the logits z[c, k, l], turned into P in place below
    prob = gather_rows(labels.workers, worker_params)
    prob += gather_rows(labels.items, item_params)
    top = prob[:, 0].copy()
    for k in range(1, K):
        np.maximum(top, prob[:, k], out=top)
    log_obs = np.take(prob.reshape(K, K * L), obs_index, axis=1)
    prob -= top[:, None, :]
    np.exp(prob, out=prob)
    total = prob[:, 0].copy()
    for k in range(1, K):
        total += prob[:, k]
    prob /= total[:, None, :]
    np.log(total, out=total)
    total += top
    log_obs -= total
    return prob, log_obs


# The fixed inputs of one LabelMatrix and the last values read from them, as
# {"labels", "one_hot", "obs_index", "rows": (posterior key, rows),
#  "model": (score key, (prob, log_obs))}, or None.
_memo = [None]


def _entry(labels: LabelMatrix) -> dict:
    """The slot's entry for `labels`, the same object as the stored one.

    For any other LabelMatrix the slot is emptied first, so nothing of the old
    one is alive while `_label_constants` builds the new entry.
    """
    entry = _memo[0]
    if entry is None or entry["labels"] is not labels:
        entry = _memo[0] = None
        one_hot, obs_index = _label_constants(labels)
        entry = _memo[0] = {"labels": labels, "one_hot": one_hot,
                            "obs_index": obs_index, "rows": None, "model": None}
    return entry


def _label_constants(labels: LabelMatrix):
    """What the model and the gradient read of the observed labels, both
    read-only: the (K, L) bool one-hot I(x_l = k), and x_l * L + l, the index of
    each observed label's logit in a class-major (K, K * L) table."""
    L = labels.num_labels
    one_hot = labels.labels == np.arange(labels.num_classes)[:, None]
    obs_index = labels.labels * L + np.arange(L)
    one_hot.setflags(write=False)
    obs_index.setflags(write=False)
    return one_hot, obs_index


def _model(labels: LabelMatrix, worker_params, item_params, mode: Mode):
    """`_log_model` behind the slot, so each score point costs one pass.

    The objective, the E-step and the gradient all read the model here. The
    stored model is returned again when `labels` is the same object, the mode
    is equal and both score arrays have the dtype, shape and bytes of the
    stored ones. Otherwise the stored model, and only it, is dropped before one
    new pass fills its place, so at most one model is alive at a time; the new
    key is built after the pass, so no copy of the scores is alive during it
    either.
    """
    entry = _entry(labels)
    stored = entry["model"]
    if stored is not None and stored[0] == _key(mode, worker_params, item_params):
        return stored[1]
    stored = entry["model"] = None
    model = _log_model(labels, worker_params, item_params, mode, entry["obs_index"])
    entry["model"] = (_key(mode, worker_params, item_params), model)
    return model


def _posterior_rows(labels: LabelMatrix, posterior) -> np.ndarray:
    """gather_rows(labels.items, posterior), read-only, behind the slot.

    The M-step holds the posterior fixed, so the rows are gathered once per
    posterior: they are returned again while `labels` is the same object and
    the posterior has the dtype, shape and bytes of the one they came from,
    and a new score point keeps them.
    """
    entry = _entry(labels)
    q = np.asarray(posterior)
    key = (q.dtype, q.shape, q.tobytes())
    stored = entry["rows"]
    if stored is not None and stored[0] == key:
        return stored[1]
    stored = entry["rows"] = None
    rows = gather_rows(labels.items, q)
    rows.setflags(write=False)
    entry["rows"] = (key, rows)
    return rows


def _key(mode: Mode, worker_params, item_params) -> tuple:
    """The mode, and the dtype, shape and bytes of both score arrays."""
    w, i = np.asarray(worker_params), np.asarray(item_params)
    return mode, w.dtype, w.shape, w.tobytes(), i.dtype, i.shape, i.tobytes()


def gather_rows(index: np.ndarray, table: np.ndarray) -> np.ndarray:
    """An (entity, ...) table read at each observation, class-major:
    out[..., l] = table[index[l]], with every row contiguous."""
    rows = np.ascontiguousarray(table.reshape(len(table), -1).T)
    return np.take(rows, index, axis=1).reshape(*table.shape[1:], len(index))


def scatter_rows(index: np.ndarray, rows: np.ndarray, size: int) -> np.ndarray:
    """Sum class-major rows into `size` entity slots: out[index[l], ...] +=
    rows[..., l], the adjoint of `gather_rows`.

    One np.bincount per contiguous row, each adding in observation order, so
    the result equals np.add.at on zeros exactly.
    """
    flat = rows.reshape(-1, rows.shape[-1])
    out = np.empty((size, len(flat)))
    for r, row in enumerate(flat):
        out[:, r] = np.bincount(index, weights=row, minlength=size)
    return out.reshape((size, *rows.shape[:-1]))


def entropy(posterior: np.ndarray) -> float:
    """Shannon entropy of the posterior rows, with 0 * log 0 = 0."""
    q = np.asarray(posterior)
    return float(-np.sum(np.where(q > 0, q * np.log(np.maximum(q, PROB_FLOOR)), 0.0)))


def _data_term(rows, log_obs) -> float:
    """sum_l sum_c Q_l(c) log P(x_l | c), from the posterior rows Q_l(c)."""
    return float((rows * log_obs).sum())


def penalized_likelihood(labels, posterior, worker_params, item_params,
                         hyper: HyperParams) -> float:
    """The objective the M-step ascends: expected log-likelihood minus penalties."""
    _, log_obs = _model(labels, worker_params, item_params, hyper.mode)
    data = _data_term(_posterior_rows(labels, posterior), log_obs)
    # the centered variant applies to worker scores only
    return (data - regularizer_value(worker_params, hyper.variant, hyper.alpha)
            - regularizer_value(item_params, RegularizerVariant.EUCLIDEAN, hyper.beta))


def dual_objective(labels, posterior, worker_params, item_params,
                   hyper: HyperParams) -> float:
    """Regularized dual: expected log-likelihood + label entropy - penalties."""
    return penalized_likelihood(labels, posterior, worker_params, item_params,
                                hyper) + entropy(posterior)


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
           hyper: HyperParams) -> np.ndarray:
    """Exact posterior block update: Bayes rule with a uniform prior, in log space."""
    _, log_obs = _model(labels, worker_params, item_params, hyper.mode)
    log_q = scatter_rows(labels.items, log_obs, labels.num_items)
    log_q -= logsumexp(log_q, axis=1, keepdims=True)
    return np.exp(log_q)


def m_step_gradients(labels: LabelMatrix, posterior, worker_params, item_params,
                     hyper: HyperParams):
    """Analytic gradients of the penalized likelihood w.r.t. both score tensors.

    The data part per observation is Q(c) * [I(x = k) - P(k | c)], accumulated
    into the observation's worker and item slots in observation order (a fixed
    reduction order, so results are reproducible).
    """
    K = labels.num_classes
    if posterior.shape != (labels.num_items, K):
        raise ValueError("posterior shape does not match the label matrix")
    prob, _ = _model(labels, worker_params, item_params, hyper.mode)
    # (K, K, L): I(x_l = k) - P(k | c), then times Q(c) in place
    per_obs = np.subtract(_entry(labels)["one_hot"], prob)
    per_obs *= _posterior_rows(labels, posterior)[:, None, :]
    gw = scatter_rows(labels.workers, per_obs, labels.num_workers)
    gi = scatter_rows(labels.items, per_obs, labels.num_items)
    if hyper.mode == Mode.ORDINAL:
        gw = project_ordinal(gw, K)
        gi = project_ordinal(gi, K)
    gw -= regularizer_gradient(worker_params, hyper.variant, hyper.alpha)
    gi -= regularizer_gradient(item_params, RegularizerVariant.EUCLIDEAN, hyper.beta)
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
    value = penalized_likelihood(labels, posterior, worker_params, item_params, hyper)
    gw, gi = m_step_gradients(labels, posterior, worker_params, item_params, hyper)
    return -value, -np.concatenate([gw.ravel(), gi.ravel()])


def _lbfgs(labels: LabelMatrix, posterior, worker_params, item_params,
           hyper: HyperParams, options):
    """Maximize the penalized likelihood from the given scores with L-BFGS-B
    under the given solver options; returns (worker_params, item_params)."""
    from scipy.optimize import minimize

    shapes = (worker_params.shape, item_params.shape)
    x0 = np.concatenate([worker_params.ravel(), item_params.ravel()])
    res = minimize(_value_and_grad, x0, args=(labels, posterior, hyper, *shapes),
                   jac=True, method="L-BFGS-B", options=options)
    return _split(res.x, *shapes)


def _curvature_bound(labels: LabelMatrix, posterior, hyper: HyperParams):
    """Per-score bounds (workers, items) on the penalized likelihood's curvature:
    P(1 - P) <= 1/4 (Boehning's multinomial-logit bound, diagonal form) gives
    1/4 sum_l Q_l(c) for each dense score (c, k) of an entity, pooled onto
    ordinal scores, plus alpha or beta. No model pass is needed."""
    K = labels.num_classes
    mass = 0.25 * _posterior_rows(labels, posterior)  # (K, L)
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
    the M-step stops. Through `_model`, the starting point, each trial and the
    gradient at an accepted trial cost one model pass per point.
    Returns (worker_params, item_params, line_search_failed).
    """
    wp, ip = worker_params, item_params
    bw, bi = _curvature_bound(labels, posterior, hyper)
    mw, mi = bw > 0, bi > 0
    value = penalized_likelihood(labels, posterior, wp, ip, hyper)
    failed = False
    for _ in range(hyper.inner_gradient_steps):
        gw, gi = m_step_gradients(labels, posterior, wp, ip, hyper)
        dw = np.divide(gw, bw, out=np.zeros_like(gw), where=mw)
        di = np.divide(gi, bi, out=np.zeros_like(gi), where=mi)
        slope = float((gw * dw).sum() + (gi * di).sum())
        if slope == 0.0:
            break
        step = 1.0
        for _ in range(MAX_HALVINGS):
            cand_w, cand_i = wp + step * dw, ip + step * di
            cand_val = penalized_likelihood(labels, posterior, cand_w, cand_i, hyper)
            if cand_val >= value + ARMIJO * step * slope:
                wp, ip, value = cand_w, cand_i, cand_val
                break
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
    wp, ip = _lbfgs(labels, posterior, worker_params, item_params, hyper,
                    {"maxiter": 2000, "gtol": 1e-10, "ftol": 1e-15})
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
    # Both traces, the E-step and the next M-step's start all read the model at
    # the current scores from `_model`'s slot, so it is computed once per point;
    # the label constants are built once per fit and the posterior rows once
    # per posterior.
    trace = [dual_objective(labels, posterior, wp, ip, hyper)]
    converged = False
    iterations = 0
    ls_failures = 0
    step_fn = m_step_exact if hyper.exact_m_step else m_step
    for it in range(1, hyper.max_outer_iters + 1):
        iterations = it
        prev = trace[-1]
        wp, ip, failed = step_fn(labels, posterior, wp, ip, hyper)
        ls_failures += failed
        trace.append(dual_objective(labels, posterior, wp, ip, hyper))
        posterior = e_step(labels, wp, ip, hyper)
        trace.append(dual_objective(labels, posterior, wp, ip, hyper))
        if abs(trace[-1] - prev) < hyper.tol * max(abs(prev), PROB_FLOOR):
            converged = True
            break
    _memo[0] = None  # keep nothing past the fit
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
    q = round_posterior(result.posterior)
    wp, ip = result.worker_params, result.item_params
    for _ in range(3):  # three solve-then-pin rounds
        wp, ip = _lbfgs(labels, q, wp, ip, hyper,
                        {"maxiter": 20000, "maxfun": 50000, "gtol": 1e-14, "ftol": 0})
        for scores in (wp, ip):
            sat = np.abs(scores) > 12.0  # runaway: far past any interior optimum
            scores[sat] = np.sign(scores[sat]) * 600.0
    _memo[0] = None  # keep nothing past the polish
    return FitResult(posterior=q, worker_params=wp, item_params=ip,
                     objective_trace=list(result.objective_trace),
                     converged=result.converged, iterations=result.iterations)


def _label_entropy(labels: LabelMatrix, posterior, prob) -> float:
    """H(observed labels | true labels) under the model prob and posterior,
    with 0 * log 0 = 0."""
    per_pair = -np.sum(prob * np.log(np.maximum(prob, PROB_FLOOR)), axis=1)  # (K, L)
    return float(np.sum(gather_rows(labels.items, posterior) * per_pair))


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
    prob, log_obs = _log_model(labels, result.worker_params, result.item_params,
                               hyper.mode)
    data = _data_term(gather_rows(labels.items, q), log_obs)
    return abs(-data - _label_entropy(labels, q, prob))
