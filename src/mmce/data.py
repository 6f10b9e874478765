"""Sparse (worker, item, label) observation store and dataset statistics."""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

import numpy as np


class LabelFileError(ValueError):
    """Raised on malformed label/gold files (carries the offending line number)."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


@dataclass(frozen=True)
class LabelMatrix:
    """Immutable sparse set of (worker, item, label) observations.

    Workers and items carry external string IDs interned to dense indices in
    first-appearance order. Labels are 0-based integers in [0, num_classes).
    """

    num_workers: int
    num_items: int
    num_classes: int
    workers: np.ndarray  # (L,) int worker index per observation
    items: np.ndarray    # (L,) int item index per observation
    labels: np.ndarray   # (L,) int label per observation
    worker_ids: tuple[str, ...]
    item_ids: tuple[str, ...]

    def __post_init__(self):
        for arr in (self.workers, self.items, self.labels):
            arr.setflags(write=False)

    @property
    def num_labels(self) -> int:
        return len(self.labels)

    def unlabeled_items(self) -> np.ndarray:
        """Indices of items with zero observations (emitted with uniform posteriors)."""
        counts = np.bincount(self.items, minlength=self.num_items)
        return np.flatnonzero(counts == 0)

    def subset(self, mask: np.ndarray) -> "LabelMatrix":
        """Restrict to the observations selected by a boolean or index mask.

        ID maps and counts are preserved so indices stay comparable.
        """
        return LabelMatrix(
            num_workers=self.num_workers,
            num_items=self.num_items,
            num_classes=self.num_classes,
            workers=self.workers[mask].copy(),
            items=self.items[mask].copy(),
            labels=self.labels[mask].copy(),
            worker_ids=self.worker_ids,
            item_ids=self.item_ids,
        )


def _intern(rows, num_classes, label_base, worker_ids=None, item_ids=None) -> LabelMatrix:
    """Validate (line_no, (worker_id, item_id, label)) rows into a LabelMatrix.

    Every rule for one observation lives here: ids are non-empty, the label is
    an integer in label_base..num_classes-1+label_base, and a worker labels an
    item at most once. Errors name the row's line number. IDs are interned in
    first-appearance order, after the pre-registered worker_ids/item_ids.
    """
    w_map = {wid: n for n, wid in enumerate(dict.fromkeys(map(str, worker_ids or ())))}
    i_map = {iid: n for n, iid in enumerate(dict.fromkeys(map(str, item_ids or ())))}
    ws, its, ls, lines = array("q"), array("q"), array("q"), array("q")
    top = num_classes - 1 + label_base
    try:
        for n, (wid, iid, lab) in rows:
            if not wid or not iid:
                raise LabelFileError("empty worker or item id", n)
            try:
                value = int(lab)
            except ValueError:
                raise LabelFileError(f"label {lab!r} is not an integer", n) from None
            if not label_base <= value <= top:
                raise LabelFileError(
                    f"label {value} out of range (valid labels are {label_base}..{top})", n)
            ws.append(w_map.setdefault(wid, len(w_map)))
            its.append(i_map.setdefault(iid, len(i_map)))
            ls.append(value - label_base)
            lines.append(n)
    except Exception:
        # a repeated pair before the failing row is the first fault in file order
        _check_duplicates(ws, its, lines, w_map, i_map)
        raise
    _check_duplicates(ws, its, lines, w_map, i_map)
    return LabelMatrix(
        num_workers=len(w_map),
        num_items=len(i_map),
        num_classes=int(num_classes),
        workers=np.frombuffer(ws, dtype=np.int64),
        items=np.frombuffer(its, dtype=np.int64),
        labels=np.frombuffer(ls, dtype=np.int64),
        worker_ids=tuple(w_map),
        item_ids=tuple(i_map),
    )


def _check_duplicates(ws, its, lines, w_map, i_map) -> None:
    """Raise on the first row, in file order, that repeats a worker-item pair.

    Pairs are compared as one int64 key, exact below 2**31 workers and 2**32
    items; flat arrays and one sort keep this far smaller than a set of pairs.
    """
    pairs = np.frombuffer(ws, dtype=np.int64) << 32 | np.frombuffer(its, dtype=np.int64)
    order = np.argsort(pairs, kind="stable")
    repeats = order[1:][pairs[order[1:]] == pairs[order[:-1]]]
    if len(repeats):
        r = int(repeats.min())
        wid, iid = tuple(w_map)[ws[r]], tuple(i_map)[its[r]]
        raise LabelFileError(f"duplicate observation for worker {wid!r}, item {iid!r}",
                             lines[r])


def from_triples(triples, num_classes, worker_ids=None, item_ids=None) -> LabelMatrix:
    """Build a LabelMatrix from (worker_id, item_id, label) triples.

    IDs are interned in first-appearance order; pre-seeded ID lists may be
    passed to register workers/items that have no observations. Errors name
    the triple's 1-based position. An id that a labels file cannot carry (a
    comma, a line break, or leading or trailing whitespace) is rejected, so
    write_labels output always loads back.
    """
    def rows():
        for n, (wid, iid, lab) in enumerate(triples, start=1):
            wid, iid = str(wid), str(iid)
            for x in (wid, iid):
                if x != x.strip() or any(ch in x for ch in ",\r\n"):
                    raise LabelFileError(
                        f"id {x!r} in triple {(wid, iid, lab)!r} has a comma, a line "
                        "break or surrounding whitespace, which a labels file cannot hold", n)
            yield n, (wid, iid, lab)

    return _intern(rows(), num_classes, 0, worker_ids, item_ids)


def _parse_rows(path, expected_fields):
    """Yield (line_no, stripped fields) per non-blank line, skipping a header."""
    with open(path, encoding="utf-8") as fh:
        for n, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            parts = line.split(",")
            if n == 1 and [p.strip().lower() for p in parts] == expected_fields:
                continue  # optional header
            if len(parts) != len(expected_fields):
                raise LabelFileError(
                    f"expected {len(expected_fields)} comma-separated fields, got {len(parts)}", n)
            yield n, [p.strip() for p in parts]


def load_labels(path, num_classes, label_base=0) -> LabelMatrix:
    """Load a `worker_id,item_id,label` CSV file into a LabelMatrix.

    label_base 1 shifts incoming labels down by one for datasets encoded 1..K.
    """
    if label_base not in (0, 1):
        raise ValueError("label_base must be 0 or 1")
    return _intern(_parse_rows(path, ["worker", "item", "label"]), num_classes, label_base)


def write_labels(labels: LabelMatrix, path, label_base=0) -> None:
    """Write the canonical labels file (inverse of load_labels)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("worker,item,label\n")
        for w, i, lab in zip(labels.workers, labels.items, labels.labels):
            fh.write(f"{labels.worker_ids[w]},{labels.item_ids[i]},{lab + label_base}\n")


@dataclass(frozen=True)
class GoldLabels:
    """Partial map item_index -> true class, for evaluation."""

    by_item: dict[int, int] = field(default_factory=dict)

    def __len__(self):
        return len(self.by_item)


def load_gold(path, item_ids, num_classes, label_base=0) -> GoldLabels:
    """Load an `item_id,label` CSV keyed against a known item-ID order."""
    by_item: dict[int, int] = {}
    item_index = {iid: i for i, iid in enumerate(item_ids)}
    for n, (iid, lab) in _parse_rows(path, ["item", "label"]):
        if iid not in item_index:
            raise LabelFileError(f"unknown item id {iid!r}", n)
        try:
            lab = int(lab) - label_base
        except ValueError:
            raise LabelFileError(f"gold label {lab!r} is not an integer", n) from None
        if not 0 <= lab < num_classes:
            raise LabelFileError(f"gold label {lab + label_base} out of range", n)
        if item_index[iid] in by_item:
            raise LabelFileError(f"second gold label for item {iid!r}", n)
        by_item[item_index[iid]] = lab
    return GoldLabels(by_item)


@dataclass(frozen=True)
class DatasetSummary:
    num_classes: int
    num_items: int
    num_workers: int
    num_labels: int
    labels_per_worker: float
    labels_per_item: float
    avg_worker_error: float | None = None


def summarize(labels: LabelMatrix, gold: GoldLabels | None = None) -> DatasetSummary:
    """Dataset counts, mean labels per worker/item, optional worker error vs gold."""
    avg_err = None
    if gold is not None and len(gold) > 0:
        gold_items = np.asarray(sorted(gold.by_item), dtype=np.int64)
        gold_vals = np.asarray([gold.by_item[i] for i in gold_items], dtype=np.int64)
        lut = np.full(labels.num_items, -1, dtype=np.int64)
        lut[gold_items] = gold_vals
        on_gold = lut[labels.items] >= 0
        if on_gold.any():
            avg_err = float(np.mean(labels.labels[on_gold] != lut[labels.items[on_gold]]))
    return DatasetSummary(
        num_classes=labels.num_classes,
        num_items=labels.num_items,
        num_workers=labels.num_workers,
        num_labels=labels.num_labels,
        labels_per_worker=labels.num_labels / labels.num_workers if labels.num_workers else 0.0,
        labels_per_item=labels.num_labels / labels.num_items if labels.num_items else 0.0,
        avg_worker_error=avg_err,
    )


POSTERIOR_HEADER_PREFIX = ("item", "predicted")


def write_posterior(path, labels: LabelMatrix, posterior: np.ndarray,
                    predicted: np.ndarray) -> None:
    """Write the posterior TSV: item, argmax label, then 6-decimal probabilities."""
    K = labels.num_classes
    header = "item\tpredicted\t" + "\t".join(f"p{k}" for k in range(K))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for j in range(labels.num_items):
            probs = "\t".join(f"{p:.6f}" for p in posterior[j])
            fh.write(f"{labels.item_ids[j]}\t{predicted[j]}\t{probs}\n")


def read_posterior(path):
    """Read a posterior TSV back as (item_ids, predicted, posterior)."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if tuple(header[:2]) != POSTERIOR_HEADER_PREFIX:
            raise LabelFileError("not a posterior file: bad header", 1)
        K = len(header) - 2
        ids, preds, probs = [], array("q"), array("d")  # flat buffers, no per-row objects
        for n, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != K + 2:
                raise LabelFileError("wrong number of columns", n)
            try:
                preds.append(int(parts[1]))
            except ValueError:
                raise LabelFileError(f"predicted label {parts[1]!r} is not an integer",
                                     n) from None
            try:
                probs.extend(map(float, parts[2:]))
            except ValueError as exc:
                raise LabelFileError(f"probability is not a number ({exc})", n) from None
            ids.append(parts[0])
    return ids, np.array(preds, dtype=np.int64), np.array(probs).reshape(len(ids), K)
