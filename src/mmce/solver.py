"""Coordinate-ascent solver for the regularized minimax-entropy dual objective.

Alternates an exact posterior update (Bayes rule with a uniform prior, the
block maximizer in Q) with one backtracking ascent step on the worker/item
scores along the gradient over a fixed diagonal preconditioner, retried once
at its parabola's peak when it overshoots, with each trial put at the penalty's
optimal worker/item split (`_ridge_split`). The E-step maximizes its block and
the Armijo search accepts only steps that raise the objective, and a retry
only a point above an accepted one, so the trace is non-decreasing up to
float slack; the preconditioner alone would not ensure that (see
`_curvature_bound`). This is a generalized EM (Dempster, Laird & Rubin 1977):
an M-step need only raise its block.

Only `fit` shares values, on its own copy of the label matrix, which holds two
records: one for the score point (`_point`: its model, one pass per point, where
the all-zero start needs none (`_uniform_model`), its penalties, and the
objective value with the posterior it was computed at) and one for the
posterior (`_posterior`: its rows, one gather per posterior, and its entropy).
A direct call off a fit computes afresh and keeps nothing; the L-BFGS objective
and `kl_identity_check` hand one model pass of their own to `_penalized` and
`_gradients`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .confusion import (
    Mode,
    RegularizerVariant,
    expand_ordinal,
    init_params,
    ordinal_basis,
    project_ordinal,
    regularizer_gradient,
    regularizer_value,
)
from .data import LabelMatrix

PROB_FLOOR = 1e-300  # floor before logs; invisible at output precision

# M-step line search: trials per search, sufficient-increase factor
MAX_HALVINGS = 50
ARMIJO = 1e-4
# An accepted step is retried once at the peak of the parabola through f(0), f'(0)
# and f(step) when that peak lies below this fraction of the step. On the benchmark
# inputs (seeds 101-110) ordinal peaks sit at 0.63-0.76 of the step and dense CV
# folds at gamma = 2 near 0.5, while sparse multiclass peaks sit at 0.78-1.12, so
# 3/4 halves the ordinal outer iterations (498 -> 250) and leaves multiclass fits
# unchanged; 0.7 and 0.8 took 258 and 274, an exact line search (1.0) 293.
PEAK_RETRY = 0.75


@dataclass
class HyperParams:
    alpha: float = 1.0
    beta: float = 1.0
    mode: Mode = Mode.MULTICLASS
    variant: RegularizerVariant = RegularizerVariant.EUCLIDEAN
    max_outer_iters: int = 200
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
        if (not isinstance(self.max_outer_iters, (int, np.integer))
                or isinstance(self.max_outer_iters, bool)):
            raise ValueError(f"max_outer_iters must be an integer, got {self.max_outer_iters!r}")
        if self.max_outer_iters < 1:
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
    """The labeling model at every observation, stored class-major.

    Returns (prob, log_obs), both C-contiguous with the observation axis last:
    prob[c, k, l] = P(k | c), shape (K, K, L), and log_obs[c, l] = log P(x_l | c),
    shape (K, L), for the (worker, item) pair of observation l. Ordinal scores
    are expanded first. Each (c, k) row is one contiguous run over the
    observations, so `softmax_in_place` normalizes the logits z along k in
    whole (K, L) slices with one exp pass, and log_obs is z[x_l] minus the
    log-normalizer it returns. The score tensors keep their (entity, c, k) layout.

    Besides the (K, K, L) result it holds one transposed (c, k, item) copy of
    the item scores, one (K, L) item gather per true class c at a time, and
    the softmax's (K, L) temporaries, never a second (K, K, L) table.
    """
    K, L = labels.num_classes, labels.num_labels
    if mode == Mode.ORDINAL:
        worker_params = expand_ordinal(worker_params, K)
        item_params = expand_ordinal(item_params, K)
    # the logits z[c, k, l], turned into P in place below
    prob = gather_rows(labels.workers, worker_params)
    n = len(item_params)
    items = np.ascontiguousarray(item_params.reshape(n, K * K).T).reshape(K, K, n)
    del worker_params, item_params  # an expanded ordinal table goes here
    for c in range(K):  # one true class at a time; no loop view keeps `items`
        prob[c] += items[c].take(labels.items, axis=1)
    del items
    # x_l * L + l: the observed label's logit in the (K, K * L) table
    obs_index = labels.labels * L + np.arange(L)
    log_obs = prob.reshape(K, K * L).take(obs_index, axis=1)
    del obs_index
    log_obs -= softmax_in_place(prob, axis=1)
    return prob, log_obs


def _uniform_model(K: int, L: int):
    """`_log_model` at the all-zero scores of `init_params`, without a pass: the
    model is uniform there, so both arrays are read-only broadcast views of one
    (K, K, 1) `softmax_in_place` of zeros, prob = 1/K and log_obs = -log K,
    from the same operations as the pass."""
    prob, log_obs = np.zeros((K, K, 1)), np.zeros((K, 1))
    log_obs -= softmax_in_place(prob, axis=1)
    return np.broadcast_to(prob, (K, K, L)), np.broadcast_to(log_obs, (K, L))


def _point(labels: LabelMatrix, worker_params, item_params, hyper: HyperParams,
           model=None) -> SimpleNamespace:
    """A score point's record: the scores, their `_log_model` pair (`model`), their
    (worker, item) `penalties`, and the (posterior, penalized likelihood) `value`
    last computed there (`_value`). One model pass per point within a fit: `fit`'s
    own copy of the label matrix holds (`held`) the last record built here, from
    the start on, where `fit` passes the all-zero scores' `_uniform_model`. One fit
    has one mode, and inputs match by identity, which holds because `fit` builds
    every score array and posterior anew and changes none in place. A matrix
    without `held`, as any caller's but `fit`'s, keeps nothing."""
    held = getattr(labels, "held", {})
    point = held.get("point")
    if not (point and point.worker_params is worker_params and point.item_params is item_params):
        held["point"] = point = None  # drop the old model before the pass
        if model is None:
            model = _log_model(labels, worker_params, item_params, hyper.mode)
        held["point"] = point = SimpleNamespace(
            worker_params=worker_params, item_params=item_params, model=model,
            penalties=_penalties(worker_params, item_params, hyper), value=None)
    return point


def _posterior(labels: LabelMatrix, posterior) -> SimpleNamespace:
    """A posterior's record: the `posterior`, its `rows` gather_rows(labels.items,
    posterior), read-only, and its `entropy`. One gather and one entropy per
    posterior within a fit, held as in `_point`."""
    held = getattr(labels, "held", {})
    record = held.get("posterior")
    if not (record and record.posterior is posterior):
        q = np.asarray(posterior)
        if q.shape != (labels.num_items, labels.num_classes):
            raise ValueError("posterior shape does not match the label matrix")
        held["posterior"] = record = None  # drop the old rows before the gather
        rows = gather_rows(labels.items, q)
        rows.setflags(write=False)
        held["posterior"] = record = SimpleNamespace(posterior=posterior, rows=rows,
                                                     entropy=entropy(q))
    return record


def gather_rows(index: np.ndarray, table: np.ndarray) -> np.ndarray:
    """An (entity, ...) table read at each observation, class-major:
    out[..., l] = table[index[l]], with every row contiguous."""
    rows = np.ascontiguousarray(table.reshape(len(table), -1).T)
    return rows.take(index, axis=1).reshape(*table.shape[1:], len(index))


def softmax_in_place(a: np.ndarray, axis: int) -> np.ndarray:
    """Replace `a` by its softmax along `axis` with one exp pass, shifted by
    the max so nothing overflows, and return the log-normalizer log(sum(exp(a)))
    along `axis`, with that axis dropped. Inputs must be finite and the axis
    at least 2 long. The axis is short (the class count), so every step but
    the exp loops over its slices, in index order, as whole-array operations;
    on an (n, K) array that beats broadcasting along the rows. The max and the
    sum start from their first two slices (one ufunc call, no seed copy).
    """
    lead = (slice(None),) * axis  # basic indexing keeps the other axes in order
    parts = [a[lead + (i,)] for i in range(a.shape[axis])]
    top = np.maximum(parts[0], parts[1])
    for part in parts[2:]:
        np.maximum(top, part, out=top)
    for part in parts:
        part -= top
    np.exp(a, out=a)
    total = np.add(parts[0], parts[1])
    for part in parts[2:]:
        total += part
    for part in parts:
        part /= total
    np.log(total, out=total)
    total += top
    return total


def scatter_rows(index: np.ndarray, rows: np.ndarray, size: int, out=None) -> np.ndarray:
    """Sum class-major rows into `size` entity slots: out[index[l], ...] +=
    rows[..., l], the adjoint of `gather_rows`.

    One np.add.at per contiguous row into its own zeroed row of an (R, size)
    buffer, adding in observation order from 0 (np.bincount's sums exactly,
    without its pass for the largest index), then one transposing copy to a
    C-contiguous (size, ...) table, or into `out`, a (size, ...) view such as
    one class of a larger table, which is returned.
    """
    flat = rows.reshape(-1, rows.shape[-1])
    sums = np.zeros((len(flat), size))
    for r, row in enumerate(flat):
        np.add.at(sums[r], index, row)
    table = sums.T.reshape((size, *rows.shape[:-1]))
    if out is None:
        return np.ascontiguousarray(table)
    out[...] = table
    return out


def entropy(posterior: np.ndarray) -> float:
    """Shannon entropy of the posterior rows, with 0 * log 0 = 0 (the floored
    log makes each zero term -0.0)."""
    q = np.asarray(posterior)
    return float(-np.sum(q * np.log(np.maximum(q, PROB_FLOOR))))


def _penalties(worker_params, item_params, hyper: HyperParams) -> tuple[float, float]:
    """The worker and item penalties; the centered variant applies to worker scores only."""
    return (regularizer_value(worker_params, hyper.variant, hyper.alpha),
            regularizer_value(item_params, RegularizerVariant.EUCLIDEAN, hyper.beta))


def _penalized(rows, log_obs, penalties) -> float:
    """sum_l sum_c Q_l(c) log P(x_l | c) minus the (worker, item) penalties, from
    the rows Q_l(c)."""
    return float((rows * log_obs).sum()) - penalties[0] - penalties[1]


def _value(labels, posterior, worker_params, item_params, hyper: HyperParams):
    """The penalized likelihood at (posterior, score point), kept on the point's
    record with its posterior, and the posterior's record."""
    point = _point(labels, worker_params, item_params, hyper)
    record = _posterior(labels, posterior)
    if point.value is None or point.value[0] is not posterior:
        point.value = (posterior, _penalized(record.rows, point.model[1], point.penalties))
    return point.value[1], record


def penalized_likelihood(labels, posterior, worker_params, item_params,
                         hyper: HyperParams) -> float:
    """The objective the M-step ascends: expected log-likelihood minus penalties."""
    return _value(labels, posterior, worker_params, item_params, hyper)[0]


def dual_objective(labels, posterior, worker_params, item_params,
                   hyper: HyperParams) -> float:
    """Regularized dual: expected log-likelihood + label entropy - penalties."""
    value, record = _value(labels, posterior, worker_params, item_params, hyper)
    return value + record.entropy


def initialize_posterior(labels: LabelMatrix) -> np.ndarray:
    """Vote-count posterior; items without labels get the uniform row."""
    n, K = labels.num_items, labels.num_classes
    counts = np.bincount(labels.items * K + labels.labels,
                         minlength=n * K).reshape(n, K).astype(float)
    totals = counts.sum(axis=1, keepdims=True)
    return np.divide(counts, totals, out=np.full((n, K), 1 / K), where=totals > 0)


def e_step(labels: LabelMatrix, worker_params, item_params,
           hyper: HyperParams) -> np.ndarray:
    """Exact posterior block update: Bayes rule with a uniform prior, in log space."""
    log_obs = _point(labels, worker_params, item_params, hyper).model[1]
    q = scatter_rows(labels.items, log_obs, labels.num_items)
    softmax_in_place(q, axis=1)
    return q


def m_step_gradients(labels: LabelMatrix, posterior, worker_params, item_params,
                     hyper: HyperParams):
    """Analytic gradients of the penalized likelihood w.r.t. both score tensors."""
    prob = _point(labels, worker_params, item_params, hyper).model[0]
    return _gradients(labels, _posterior(labels, posterior).rows, prob, worker_params,
                      item_params, hyper)


def _gradients(labels, rows, prob, worker_params, item_params, hyper: HyperParams):
    """`m_step_gradients` from the posterior rows and the model's prob.

    The data part per observation is Q(c) * [I(x = k) - P(k | c)], accumulated
    into the observation's worker and item slots in observation order (a fixed
    reduction order, so results are reproducible). It is built one true class
    c at a time, as one (K, L) slab, never as a (K, K, L) table, and each
    slab's sums go straight into class c of both results.
    """
    K = labels.num_classes
    observed = labels.labels == np.arange(K)[:, None]  # (K, L): I(x_l = k)
    gw = np.empty((labels.num_workers, K, K))
    gi = np.empty((labels.num_items, K, K))
    for c, (p, q) in enumerate(zip(prob, rows)):
        slab = np.subtract(observed, p)  # I(x_l = k) - P(k | c), then times Q(c)
        slab *= q
        scatter_rows(labels.workers, slab, labels.num_workers, out=gw[:, c])
        scatter_rows(labels.items, slab, labels.num_items, out=gi[:, c])
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


def _value_and_grad(x, labels: LabelMatrix, rows, hyper: HyperParams, w_shape, i_shape):
    """The L-BFGS objective: the negated penalized likelihood and its gradient at
    the flat scores x, from the posterior rows and one model pass of its own."""
    worker_params, item_params = _split(x, w_shape, i_shape)
    prob, log_obs = _log_model(labels, worker_params, item_params, hyper.mode)
    value = _penalized(rows, log_obs, _penalties(worker_params, item_params, hyper))
    gw, gi = _gradients(labels, rows, prob, worker_params, item_params, hyper)
    return -value, -np.concatenate([gw.ravel(), gi.ravel()])


def _lbfgs(labels: LabelMatrix, posterior, worker_params, item_params,
           hyper: HyperParams, options):
    """Maximize the penalized likelihood from the given scores with L-BFGS-B
    under the given solver options; returns (worker_params, item_params)."""
    from scipy.optimize import minimize

    shapes = (worker_params.shape, item_params.shape)
    x0 = np.concatenate([worker_params.ravel(), item_params.ravel()])
    res = minimize(_value_and_grad, x0, jac=True, method="L-BFGS-B", options=options,
                   args=(labels, _posterior(labels, posterior).rows, hyper, *shapes))
    return _split(res.x, *shapes)


def _curvature_bound(labels: LabelMatrix, posterior, hyper: HyperParams):
    """The M-step's diagonal preconditioner (workers, items): 1/4 sum_l Q_l(c)
    summed over the true-class rows c a score touches, plus alpha or beta. No
    model pass is needed.

    Moving one score by t adds t to the logits of a set S_c of observed labels
    in each row c it touches (one cell in multiclass mode, the grades on one
    side of a threshold in ordinal mode), and along that score the row's
    log-softmax has curvature P(S_c)(1 - P(S_c)) <= 1/4 (Boehning's
    multinomial-logit bound, diagonal form), however large S_c is.

    Each value bounds the penalized likelihood's curvature along its own score
    only. Along directions that move a worker's and an item's scores together
    it can under-estimate -f'' (in 305 of 1000 such directions on a planted
    10-worker, 40-item, 3-class instance, by up to 1.36x), so a full step can
    overshoot; the Armijo search in m_step is what keeps the trace monotone.
    The extreme case is the worker/item split (`_ridge_split`): there the data
    term is flat and -f'' is the ridge alone, so m_step sets it exactly.

    It holds one (K, L) mass table, and per bound the scatter's buffers and
    the bound itself, which takes its ridge in place."""
    rows, shape = _touch_rows(hyper.mode, labels.num_classes)
    mass = 0.25 * _posterior(labels, posterior).rows  # (K, L)
    bounds = []
    for index, size, ridge in ((labels.workers, labels.num_workers, hyper.alpha),
                               (labels.items, labels.num_items, hyper.beta)):
        bound = (scatter_rows(index, mass, size) @ rows).reshape(size, *shape)
        bound += ridge
        bounds.append(bound)
    return bounds


@functools.lru_cache(maxsize=16)
def _touch_rows(mode: Mode, K: int):
    """`_curvature_bound`'s (row c, score) matrix, 1 where the score touches
    true-class row c, and the score shape its columns unravel to. Built once per
    (mode, K) and shared by every caller, so the matrix is read-only."""
    if mode == Mode.ORDINAL:
        touches = ordinal_basis(K).any(axis=-1)  # [s, r, c]: score (s, r) touches row c
    else:
        touches = np.broadcast_to(np.eye(K, dtype=bool)[:, None, :], (K, K, K))
    rows = touches.reshape(-1, K).T.astype(float)
    rows.setflags(write=False)
    return rows, touches.shape[:2]


def _ridge_split(worker_params, item_params, hyper: HyperParams):
    """The t per score minimizing the penalty at (sigma_w + t, tau_j - t) over all m
    workers and n items, a move the model (sigma_w + tau_j) never sees; linear in the
    scores, 0 with clamped items or no penalty. With C the worker ridge's gradient at
    weight 1, a projection:
    t = C(beta sum tau - alpha sum sigma) / (alpha m + beta n) + [beta > 0](I - C) sum tau / n."""
    alpha, beta = hyper.alpha, hyper.beta
    if hyper.clamp_item_params or alpha == beta == 0:
        return 0.0
    # entity sums as matrix-vector products, several times faster than sum(axis=0)
    ws, its = ((np.ones(len(x)) @ x.reshape(len(x), -1)).reshape(1, *x.shape[1:])
               for x in (worker_params, item_params))
    t = (regularizer_gradient(beta * its - alpha * ws, hyper.variant, 1.0)
         / (alpha * len(worker_params) + beta * len(item_params)))
    if beta > 0:  # directions the worker ridge ignores follow the item ridge alone
        t += (its - regularizer_gradient(its, hyper.variant, 1.0)) / len(item_params)
    return t


def m_step(labels: LabelMatrix, posterior, worker_params, item_params,
           hyper: HyperParams):
    """One backtracking ascent step on the penalized likelihood.

    The step moves along d = g / b, with b from `_curvature_bound` and d = 0
    where b = 0 (no mass and no penalty reach that score, so g = 0 there). It
    takes the first size t = 2**-j, j = 0 .. MAX_HALVINGS - 1, usually t = 1,
    that passes the Armijo test f(x + t d) >= f(x) + ARMIJO * t * g.d, so the
    objective cannot decrease; when none does, the line search has failed and
    the scores stay put. When the parabola through f(x), the slope g.d and
    f(x + t d) peaks below PEAK_RETRY * t, the peak is tried once and taken if
    it beats the accepted trial, which keeps the ascent. Each trial sits at the
    penalty's optimal worker/item split (`_ridge_split`), a move the model does
    not see, so f can only rise. Within a fit, the starting point and each
    trial cost one model pass per point, and the returned point's model is the
    one the caller reads next: a refused peak re-evaluates the accepted trial.

    Before the search it holds the gradient, the bound and the direction (one
    worker and one item table each), and the slope's products overwrite the
    bound. Through the search it holds the direction and one trial point, built
    afresh from the scores for each size; the accepted trial is dropped while a
    peak is tried and rebuilt if the peak is refused, so no model pass runs
    beside two trial points.
    Returns (worker_params, item_params, line_search_failed).
    """
    bw, bi = _curvature_bound(labels, posterior, hyper)
    value = penalized_likelihood(labels, posterior, worker_params, item_params, hyper)
    gw, gi = m_step_gradients(labels, posterior, worker_params, item_params, hyper)
    dw = np.divide(gw, bw, out=np.zeros_like(gw), where=bw > 0)
    di = np.divide(gi, bi, out=np.zeros_like(gi), where=bi > 0)
    # the products go into the spent bounds: no fourth table beside g, b and d
    slope = float(np.multiply(gw, dw, out=bw).sum() + np.multiply(gi, di, out=bi).sum())
    del gw, gi, bw, bi  # free them before the trials: only the direction is used
    if slope == 0.0:
        return worker_params, item_params, False
    # the split shift is affine in the step size: t0 + size * td
    t0, td = _ridge_split(worker_params, item_params, hyper), _ridge_split(dw, di, hyper)
    dw += td
    di -= td

    def trial(size):
        """The point (scores + t0) + size * direction, without a multiply at size 1."""
        point = np.add(worker_params, t0), np.subtract(item_params, t0)
        for x, d in zip(point, (dw, di)):
            x += d if size == 1.0 else size * d
        return point

    step = 1.0
    for _ in range(MAX_HALVINGS):
        cand = trial(step)
        cand_val = penalized_likelihood(labels, posterior, *cand, hyper)
        if cand_val >= value + ARMIJO * step * slope:
            curv = value + step * slope - cand_val
            peak = step * step * slope / (2 * curv) if curv > 0 else step
            if peak < PEAK_RETRY * step:
                del cand
                retry = trial(peak)
                if penalized_likelihood(labels, posterior, *retry, hyper) > cand_val:
                    return (*retry, False)
                del retry
                cand = trial(step)
                penalized_likelihood(labels, posterior, *cand, hyper)
            return (*cand, False)
        step *= 0.5
    return worker_params, item_params, True


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
    return wp, ip, False


def fit(labels: LabelMatrix, hyper: HyperParams) -> FitResult:
    """Alternate M-steps and E-steps from a vote-count initialization."""
    if labels.num_labels == 0:
        raise ValueError("cannot fit an empty label matrix")
    K = labels.num_classes
    wp = init_params(hyper.mode, labels.num_workers, K)
    ip = init_params(hyper.mode, labels.num_items, K)
    posterior = initialize_posterior(labels)
    converged = False
    iterations = 0
    ls_failures = 0
    step_fn = m_step_exact if hyper.exact_m_step else m_step
    # this fit's own matrix: calls that receive it share its point and posterior
    # records, starting with the all-zero scores' uniform model, which needs no pass
    labels = replace(labels)
    object.__setattr__(labels, "held", {})
    _point(labels, wp, ip, hyper, _uniform_model(K, labels.num_labels))
    trace = [dual_objective(labels, posterior, wp, ip, hyper)]
    for it in range(1, hyper.max_outer_iters + 1):
        iterations = it
        prev = trace[-1]
        if hyper.exact_m_step:  # L-BFGS makes its own passes: free the held model
            labels.held.pop("point", None)
        wp, ip, failed = step_fn(labels, posterior, wp, ip, hyper)
        ls_failures += failed
        trace.append(dual_objective(labels, posterior, wp, ip, hyper))
        posterior = e_step(labels, wp, ip, hyper)
        trace.append(dual_objective(labels, posterior, wp, ip, hyper))
        if abs(trace[-1] - prev) < hyper.tol * max(abs(prev), PROB_FLOOR):
            converged = not failed  # a failed step stops the fit, unconverged
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
    q = round_posterior(result.posterior)
    wp, ip = result.worker_params, result.item_params
    for _ in range(3):  # three solve-then-pin rounds
        wp, ip = _lbfgs(labels, q, wp, ip, hyper,
                        {"maxiter": 20000, "maxfun": 50000, "gtol": 1e-14, "ftol": 0})
        for scores in (wp, ip):
            sat = np.abs(scores) > 12.0  # runaway: far past any interior optimum
            scores[sat] = np.sign(scores[sat]) * 600.0
    return replace(result, posterior=q, worker_params=wp, item_params=ip,
                   objective_trace=list(result.objective_trace))


def _label_entropy(rows, prob) -> float:
    """H(observed labels | true labels) under prob and the posterior rows; 0 log 0 = 0."""
    per_pair = -np.sum(prob * np.log(np.maximum(prob, PROB_FLOOR)), axis=1)  # (K, L)
    return float(np.sum(rows * per_pair))


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
    rows = gather_rows(labels.items, round_posterior(result.posterior))
    prob, log_obs = _log_model(labels, result.worker_params, result.item_params,
                               hyper.mode)
    return abs(-float((rows * log_obs).sum()) - _label_entropy(rows, prob))
