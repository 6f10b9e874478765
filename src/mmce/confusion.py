"""Worker/item confusion parameterizations, the regularizers and the params
sidecar writer.

Two parameterizations are supported: dense (entity, c, k) score tensors, and
a structured ordinal form with one score per (threshold s, relation pair).
The ordinal form expands linearly to a dense tensor, so the labeling model
(`solver._log_model`) is shared.
"""

from __future__ import annotations

import enum
import functools

import numpy as np

from .data import _write_rows

# Relation pairs (true-label relation, observed-label relation) against a
# threshold s, in the fixed order used throughout storage and serialization.
REL_PAIRS = ((">=", ">="), (">=", "<"), ("<", ">="), ("<", "<"))


class Mode(str, enum.Enum):
    MULTICLASS = "multiclass"
    ORDINAL = "ordinal"


class RegularizerVariant(str, enum.Enum):
    EUCLIDEAN = "euclidean"
    CENTERED = "centered"


@functools.lru_cache(maxsize=16)
def ordinal_basis(K: int) -> np.ndarray:
    """Indicator basis B[s-1, r, c, k] = I(c rel_true s) * I(k rel_obs s).

    The dense expansion of ordinal parameters is linear in this basis. Built
    once per K and shared by every caller, so the array is read-only.
    """
    if K < 2:
        raise ValueError("ordinal parameterization needs K >= 2")
    c = np.arange(K)
    basis = np.zeros((K - 1, len(REL_PAIRS), K, K))
    for si, s in enumerate(range(1, K)):
        ge, lt = c >= s, c < s
        rels = {">=": ge, "<": lt}
        for ri, (rt, ro) in enumerate(REL_PAIRS):
            basis[si, ri] = np.outer(rels[rt], rels[ro])
    basis.setflags(write=False)
    return basis


def expand_ordinal(params: np.ndarray, K: int) -> np.ndarray:
    """Expand ordinal scores (entity, K-1, 4) to dense (entity, K, K) tensors."""
    params = np.asarray(params)
    if params.shape[-2:] != (K - 1, len(REL_PAIRS)):
        raise ValueError(f"ordinal params must have trailing shape ({K - 1}, 4)")
    lead = params.shape[:-2]
    return (params.reshape(*lead, (K - 1) * len(REL_PAIRS)) @ _flat_basis(K)
            ).reshape(*lead, K, K)


def project_ordinal(dense_grad: np.ndarray, K: int) -> np.ndarray:
    """Adjoint of expand_ordinal: pool a dense (c, k) gradient onto ordinal scores."""
    dense_grad = np.asarray(dense_grad)
    lead = dense_grad.shape[:-2]
    return (dense_grad.reshape(*lead, K * K) @ _flat_basis(K).T
            ).reshape(*lead, K - 1, len(REL_PAIRS))


def _flat_basis(K: int) -> np.ndarray:
    """ordinal_basis(K) as a (4(K-1), K*K) matrix: row (s, r), column (c, k)."""
    return ordinal_basis(K).reshape((K - 1) * len(REL_PAIRS), K * K)


def center(params: np.ndarray) -> np.ndarray:
    """Subtract per-entity group means: one mean over the diagonal entries and
    one over the off-diagonal entries. A symmetric idempotent linear map."""
    ent, K, _ = params.shape
    eye = np.eye(K, dtype=bool)
    diag_mean = params[:, eye].mean(axis=1)
    off_mean = params[:, ~eye].mean(axis=1) if K > 1 else np.zeros(ent)
    out = params.copy()
    out[:, eye] -= diag_mean[:, None]
    out[:, ~eye] -= off_mean[:, None]
    return out


def _penalized(params: np.ndarray, variant: RegularizerVariant, weight: float):
    """The part of the scores a quadratic penalty acts on: the scores themselves
    (Euclidean), or their deviations from the per-entity diagonal and
    off-diagonal means (centered, dense multiclass only)."""
    if weight < 0:
        raise ValueError("regularizer weight must be >= 0")
    params = np.asarray(params, dtype=float)
    if variant == RegularizerVariant.EUCLIDEAN:
        return params
    if variant == RegularizerVariant.CENTERED:
        if params.ndim != 3 or params.shape[1] != params.shape[2]:
            raise ValueError("centered variant applies to multiclass (dense) mode only")
        return center(params)
    raise ValueError(f"unknown variant {variant!r}")


def regularizer_value(params: np.ndarray, variant: RegularizerVariant,
                      weight: float) -> float:
    """Quadratic penalty value for either parameterization: (weight/2) times the
    sum of squares of the scores (Euclidean) or of their deviations from the
    per-entity diagonal and off-diagonal means (centered)."""
    return 0.5 * weight * float((_penalized(params, variant, weight) ** 2).sum())


def regularizer_gradient(params: np.ndarray, variant: RegularizerVariant,
                         weight: float) -> np.ndarray:
    """Gradient of `regularizer_value` with respect to the scores."""
    return weight * _penalized(params, variant, weight)


def init_params(mode: Mode, num_entities: int, K: int) -> np.ndarray:
    """All-zero scores: the uniform labeling model."""
    if mode == Mode.ORDINAL:
        return np.zeros((num_entities, K - 1, len(REL_PAIRS)))
    return np.zeros((num_entities, K, K))


def write_params(path, worker_params: np.ndarray, item_params: np.ndarray,
                 mode: Mode) -> None:
    """Serialize fitted scores to a TSV sidecar, one line per score: kind,
    entity, then (c, k) in multiclass mode or (threshold, relation pair) in
    ordinal mode."""
    columns = []
    for kind, tensor in (("worker", worker_params), ("item", item_params)):
        entity, row, col = np.indices(tensor.shape).reshape(3, -1)
        if mode == Mode.ORDINAL:
            row, col = row + 1, np.array([rt + ro for rt, ro in REL_PAIRS])[col]
        columns.append((np.full(tensor.size, kind), entity, row, col, tensor.ravel()))
    _write_rows(path, f"# mode={mode.value}\nkind\tentity\trow\tcol\tscore\n",
                "%s\t%s\t%s\t%s\t%.9f\n", [np.concatenate(c) for c in zip(*columns)])

