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
    items = np.asarray(sorted(i for i in gold.by_item if i < len(predictions)),
                       dtype=np.int64)
    if len(items) == 0:
        raise ValueError("no gold items have predictions")
    truth = np.asarray([gold.by_item[i] for i in items], dtype=np.int64)
    return items, truth


def error_rate(predictions: np.ndarray, gold: GoldLabels) -> float:
    """Fraction of gold items whose predicted label differs from the truth."""
    items, truth = _gold_arrays(predictions, gold)
    return float(np.mean(np.asarray(predictions)[items] != truth))


def mean_square_error(predictions: np.ndarray, gold: GoldLabels) -> float:
    """Mean squared gap between predicted and true labels as integers."""
    items, truth = _gold_arrays(predictions, gold)
    diff = np.asarray(predictions)[items].astype(float) - truth
    return float(np.mean(diff ** 2))


def calibration_bins(posterior: np.ndarray, gold: GoldLabels,
                     predictions: np.ndarray | None = None) -> tuple[CalibrationBin, ...]:
    """Bucket gold items by maximum posterior probability and score each bucket."""
    if predictions is None:
        predictions = np.argmax(posterior, axis=1)
    items, truth = _gold_arrays(predictions, gold)
    max_prob = np.max(posterior[items], axis=1)
    preds = np.asarray(predictions)[items]
    bins = []
    for lo, hi in zip(BIN_EDGES[:-1], BIN_EDGES[1:]):
        in_bin = (max_prob > lo) & (max_prob <= hi)
        count = int(in_bin.sum())
        if count:
            err = float(np.mean(preds[in_bin] != truth[in_bin]))
            mse = float(np.mean((preds[in_bin].astype(float) - truth[in_bin]) ** 2))
        else:
            err = mse = None
        bins.append(CalibrationBin(lo, hi, count, err, mse))
    return tuple(bins)


def evaluate(predictions: np.ndarray, gold: GoldLabels, ordinal: bool = False,
             posterior: np.ndarray | None = None,
             with_bins: bool = False) -> EvalReport:
    items, _ = _gold_arrays(predictions, gold)
    report = EvalReport(
        error_rate=error_rate(predictions, gold),
        n_scored=len(items),
        mse=mean_square_error(predictions, gold) if ordinal else None,
        calibration=(calibration_bins(posterior, gold, predictions)
                     if with_bins and posterior is not None else ()),
    )
    return report
