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


def _gold_arrays(predictions, gold: GoldLabels):
    """Gold items that have a prediction, in index order, and their true classes."""
    n = len(gold.by_item)
    items = np.fromiter(gold.by_item.keys(), dtype=np.int64, count=n)
    truth = np.fromiter(gold.by_item.values(), dtype=np.int64, count=n)
    keep = items < len(predictions)
    order = np.argsort(items[keep], kind="stable")
    items, truth = items[keep][order], truth[keep][order]
    if len(items) == 0:
        raise ValueError("no gold items have predictions")
    return items, truth


def _error_rate(preds, truth) -> float:
    return float(np.mean(preds != truth))


def _mean_square_error(preds, truth) -> float:
    return float(np.mean((preds.astype(float) - truth) ** 2))


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
    return evaluate(predictions, gold, posterior=posterior, with_bins=True).calibration


def evaluate(predictions: np.ndarray, gold: GoldLabels, ordinal: bool = False,
             posterior: np.ndarray | None = None,
             with_bins: bool = False) -> EvalReport:
    """Score the gold items that have a prediction: error rate, the squared
    label gap if ordinal, and calibration bins if asked for with a posterior."""
    items, truth = _gold_arrays(predictions, gold)
    preds = np.asarray(predictions)[items]
    bins = []
    if with_bins and posterior is not None:
        max_prob = np.max(posterior[items], axis=1)
        for lo, hi in zip(BIN_EDGES[:-1], BIN_EDGES[1:]):
            in_bin = (max_prob > lo) & (max_prob <= hi)
            count = int(in_bin.sum())
            if count:
                err = _error_rate(preds[in_bin], truth[in_bin])
                mse = _mean_square_error(preds[in_bin], truth[in_bin])
            else:
                err = mse = None
            bins.append(CalibrationBin(lo, hi, count, err, mse))
    return EvalReport(
        error_rate=_error_rate(preds, truth),
        n_scored=len(items),
        mse=_mean_square_error(preds, truth) if ordinal else None,
        calibration=tuple(bins),
    )
