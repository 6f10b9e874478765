"""Scoring against gold labels: error rate, ordinal MSE, and calibration bins."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import GoldLabels

# Half-open on the left, closed on the right, so a max probability of exactly
# 0.9 lands in (0.8, 0.9].
BIN_EDGES = (0.0, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


@dataclass(frozen=True)
class CalibrationBin:
    lower: float
    upper: float
    count: int
    error_rate: float | None
    mse: float | None


@dataclass(frozen=True)
class EvalReport:
    error_rate: float
    n_scored: int
    mse: float | None = None
    calibration: tuple[CalibrationBin, ...] = ()

    def lines(self) -> list[str]:
        out = [f"scored items   {self.n_scored}",
               f"error rate     {100 * self.error_rate:.2f}%"]
        if self.mse is not None:
            out.append(f"mean sq error  {self.mse:.4f}")
        if self.calibration:
            out.append("bin          count  error_rate  mse")
            for b in self.calibration:
                err = f"{b.error_rate:.3f}" if b.error_rate is not None else "-"
                mse = f"{b.mse:.3f}" if b.mse is not None else "-"
                out.append(f"({b.lower:.1f}, {b.upper:.1f}]  {b.count:5d}  "
                           f"{err:>10}  {mse}")
        return out

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("metric,value\n")
            fh.write(f"n_scored,{self.n_scored}\n")
            fh.write(f"error_rate,{self.error_rate:.6f}\n")
            if self.mse is not None:
                fh.write(f"mse,{self.mse:.6f}\n")
            for b in self.calibration:
                err = f"{b.error_rate:.6f}" if b.error_rate is not None else ""
                mse = f"{b.mse:.6f}" if b.mse is not None else ""
                fh.write(f"bin({b.lower}-{b.upper}],{b.count},{err},{mse}\n")


def error_rate(predictions: np.ndarray, gold: GoldLabels) -> float:
    """Fraction of gold items whose predicted label differs from the truth."""
    return evaluate(predictions, gold).error_rate


def mean_square_error(predictions: np.ndarray, gold: GoldLabels) -> float:
    """Mean squared gap between predicted and true labels as integers."""
    return evaluate(predictions, gold, ordinal=True).mse


def calibration_bins(posterior: np.ndarray, gold: GoldLabels,
                     predictions: np.ndarray | None = None) -> tuple[CalibrationBin, ...]:
    """Bucket gold items by maximum posterior probability and score each bucket."""
    if predictions is None:
        predictions = np.argmax(posterior, axis=1)
    return evaluate(predictions, gold, posterior=posterior).calibration


def evaluate(predictions: np.ndarray, gold: GoldLabels, ordinal: bool = False,
             posterior: np.ndarray | None = None) -> EvalReport:
    """Score the gold items that have a prediction: error rate, the squared
    label gap if ordinal, and calibration bins if a posterior is given.
    Raises ValueError naming the first scored posterior row whose largest
    probability is not in (0, 1], which no bin holds."""
    # gold items that have a prediction, in gold order, and their true classes
    # (every score is a count or a mean of small integers, so order is moot)
    items = np.fromiter(gold.by_item.keys(), dtype=np.int64, count=len(gold.by_item))
    truth = np.fromiter(gold.by_item.values(), dtype=np.int64, count=len(items))
    keep = items < len(predictions)
    items, truth = items[keep], truth[keep]
    if len(items) == 0:
        raise ValueError("no gold items have predictions")
    preds = np.asarray(predictions)[items]
    bins = []
    if posterior is not None:
        # each row's largest probability, a column at a time, in the float type
        # that compares it to the edges; bin b holds (BIN_EDGES[b - 1],
        # BIN_EDGES[b]], and 0 and len(BIN_EDGES) hold what is outside (0, 1]
        top = np.full(len(posterior), -np.inf, np.result_type(posterior, 0.0))
        for k in range(posterior.shape[1]):
            np.maximum(top, posterior[:, k], out=top)
        where = np.searchsorted(np.array(BIN_EDGES, top.dtype), top[items], side="left")
        lost = items[(where == 0) | (where == len(BIN_EDGES))]
        if len(lost):
            raise ValueError(f"posterior row {lost.min()}: largest probability "
                             f"{float(top[lost.min()])} is not in (0, 1]")
        # a bin's error rate and MSE are sums of small integers over its count,
        # so they equal means over its rows bit for bit
        counts, errors, squares = (np.bincount(where, weights, len(BIN_EDGES)) for weights in
                                   (None, preds != truth, (preds.astype(float) - truth) ** 2))
        for b, (lo, hi) in enumerate(zip(BIN_EDGES[:-1], BIN_EDGES[1:]), start=1):
            n = counts[b]
            err, mse = (float(errors[b] / n), float(squares[b] / n)) if n else (None, None)
            bins.append(CalibrationBin(lo, hi, int(n), err, mse))
    return EvalReport(
        error_rate=float(np.mean(preds != truth)),
        n_scored=len(items),
        mse=float(np.mean((preds.astype(float) - truth) ** 2)) if ordinal else None,
        calibration=tuple(bins),
    )
