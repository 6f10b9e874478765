"""Majority voting and Dawid-Skene EM reference aggregators."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import LabelMatrix
from .solver import (PROB_FLOOR, gather_rows, initialize_posterior, scatter_rows,
                     softmax_in_place)


@dataclass
class DSParams:
    """Per-worker row-stochastic confusion matrices plus a class prior."""

    confusion: np.ndarray  # (m, K, K), rows sum to 1
    prior: np.ndarray      # (K,), sums to 1


def majority_vote(labels: LabelMatrix):
    """Vote-count posterior and argmax labels (lowest index on ties).

    Items with no labels get the uniform row and label 0.
    """
    posterior = initialize_posterior(labels)
    return posterior, np.argmax(posterior, axis=1)


def _ds_m_step(labels: LabelMatrix, posterior, smoothing: float, uniform_prior: bool):
    m, K = labels.num_workers, labels.num_classes
    # counts[i, c, k]: posterior mass of class c where worker i answered k
    counts = scatter_rows(labels.workers * K + labels.labels,
                          gather_rows(labels.items, posterior), m * K).reshape(m, K, K)
    counts = counts.transpose(0, 2, 1) + smoothing
    totals = counts.sum(axis=2, keepdims=True)
    confusion = np.where(totals > 0, counts / np.maximum(totals, PROB_FLOOR), 1.0 / K)
    if uniform_prior:
        prior = np.full(K, 1.0 / K)
    else:
        prior = posterior.sum(axis=0)
        prior /= prior.sum()
    return confusion, prior


def _ds_log_joint(labels: LabelMatrix, confusion, prior) -> np.ndarray:
    """Per-item log joint (n, K): log prior(c) + sum of log p(x_l | c) over its labels."""
    m, K = labels.num_workers, labels.num_classes
    # log_p[c, i * K + k] = log confusion[i, c, k]
    log_p = np.log(np.maximum(confusion, PROB_FLOOR)).transpose(1, 0, 2).reshape(K, m * K)
    acc = scatter_rows(labels.items,
                       np.take(log_p, labels.workers * K + labels.labels, axis=1),
                       labels.num_items)
    acc += np.log(np.maximum(prior, PROB_FLOOR))
    return acc


def _ds_e_step(labels: LabelMatrix, confusion, prior):
    """Posterior and the marginal log-likelihood, from one log-joint pass."""
    q = _ds_log_joint(labels, confusion, prior)
    log_norm = softmax_in_place(q, axis=1)
    return q, float(np.sum(log_norm))


def dawid_skene_em(labels: LabelMatrix, max_iters: int = 100, tol: float = 1e-8,
                   smoothing: float = 0.01, uniform_prior: bool = False):
    """Standard Dawid-Skene EM, initialized from the majority-vote posterior.

    Laplace smoothing in the M-step avoids zero-probability lock-in; rows that
    receive no mass fall back to uniform. Returns (posterior, DSParams, trace).
    """
    if not 0 <= smoothing < math.inf:
        raise ValueError("smoothing must be finite and >= 0")
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if not isinstance(max_iters, (int, np.integer)) or isinstance(max_iters, bool):
        raise ValueError(f"max_iters must be an integer, got {max_iters!r}")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if labels.num_labels == 0:
        raise ValueError("cannot fit an empty label matrix")
    posterior, _ = majority_vote(labels)
    trace = []
    for _ in range(max_iters):
        confusion, prior = _ds_m_step(labels, posterior, smoothing, uniform_prior)
        posterior, loglik = _ds_e_step(labels, confusion, prior)
        trace.append(loglik)
        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) < tol * max(1.0, abs(trace[-2])):
            break
    return posterior, DSParams(confusion, prior), trace
