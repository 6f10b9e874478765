"""Sparse (worker, item, label) observation store, dataset statistics, and the
labels, gold and posterior file formats, read and written in fixed-size chunks."""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import compress, count, repeat

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


# Characters read per chunk before the chunk is completed to a line end. The
# readers hold one chunk's lines and columns at a time, so a parse's transient
# memory does not grow with file length. Larger chunks bought no speed on a
# 500k-line file, and they raise the process's peak and retained memory.
_CHUNK_CHARS = 1 << 12
# Rows formatted per block when writing, for the same reason.
_WRITE_ROWS = 1 << 12

_LABEL_FAULTS = ("label {!r} is not an integer",
                 "label {} out of range (valid labels are {}..{})")
_GOLD_FAULTS = ("gold label {!r} is not an integer", "gold label {} out of range")


class _LabelCodes(dict):
    """Cache from a label as read to its 0-based class, or to the message of
    the fault it raises, so each distinct label is validated once.

    A label is an integer in label_base..num_classes-1+label_base. `messages`
    holds the formats of the two faults (not an integer, out of range); `bad`
    collects the labels that fault.
    """

    def __init__(self, num_classes, label_base, messages):
        super().__init__()
        self.base, self.top, self.messages = label_base, num_classes - 1 + label_base, messages
        self.bad = set()

    def __missing__(self, lab):
        try:
            value = int(lab)
        except ValueError:
            code = self.messages[0].format(lab)
            self.bad.add(lab)
        else:
            if self.base <= value <= self.top:
                code = value - self.base
            else:
                code = self.messages[1].format(value, self.base, self.top)
                self.bad.add(lab)
        self[lab] = code
        return code

    def column(self, labels):
        """The classes of a column of labels, and the index of its first
        faulting label (None if there is none)."""
        classes = list(map(self.__getitem__, labels))
        if not self.bad:
            return classes, None
        return classes, next((k for k, lab in enumerate(labels) if lab in self.bad), None)


def _intern(chunks, num_classes, label_base, worker_ids=None, item_ids=None) -> LabelMatrix:
    """Validate column chunks (line_nos, worker_ids, item_ids, labels) into a LabelMatrix.

    Every rule for one observation lives here: ids are non-empty, the label is
    an integer in label_base..num_classes-1+label_base, and a worker labels an
    item at most once. The first fault in file order is raised, naming its
    line: the earliest faulting row of a chunk, or a repeated pair on an
    earlier row. IDs are interned in first-appearance order, after the
    pre-registered worker_ids/item_ids. Fewer than 2 classes is rejected
    before any row is read.
    """
    if num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    # id -> row of its first appearance; pre-registered ids take rows 0..n-1
    w_first = {wid: n for n, wid in enumerate(dict.fromkeys(map(str, worker_ids or ())))}
    i_first = {iid: n for n, iid in enumerate(dict.fromkeys(map(str, item_ids or ())))}
    w_base, i_base = len(w_first), len(i_first)
    codes = _LabelCodes(num_classes, label_base, _LABEL_FAULTS)
    ws, its, ls, lines = array("q"), array("q"), array("q"), array("q")

    def matrix():
        w_tuple, i_tuple = tuple(w_first), tuple(i_first)
        workers = _dense_codes(w_first, ws, w_base)
        items = _dense_codes(i_first, its, i_base)
        _check_duplicates(workers, items, lines, w_tuple, i_tuple)
        return LabelMatrix(
            num_workers=len(w_tuple),
            num_items=len(i_tuple),
            num_classes=int(num_classes),
            workers=workers,
            items=items,
            labels=np.frombuffer(ls, dtype=np.int64),
            worker_ids=w_tuple,
            item_ids=i_tuple,
        )

    try:
        for line_nos, wids, iids, labs in chunks:
            classes, bad_label = codes.column(labs)
            faults = [col.index("") for col in (wids, iids) if "" in col]
            if bad_label is not None:
                faults.append(bad_label)
            fault = None
            if faults:
                r = min(faults)
                message = (codes[labs[r]] if wids[r] and iids[r]
                           else "empty worker or item id")
                fault = LabelFileError(message, line_nos[r])
                line_nos, wids, iids, classes = line_nos[:r], wids[:r], iids[:r], classes[:r]
            ws.extend(map(w_first.setdefault, wids, count(w_base + len(ws))))
            its.extend(map(i_first.setdefault, iids, count(i_base + len(its))))
            ls.extend(classes)
            lines.extend(line_nos)
            if fault is not None:
                raise fault
    except Exception:
        # a repeated pair before the failing row is the first fault in file order
        matrix()
        raise
    return matrix()


def _dense_codes(first, rows, base) -> np.ndarray:
    """Turn, in place, ids given by the row of their first appearance into
    dense indices in first-appearance order (rows below `base` belong to
    pre-registered ids); returns a view of `rows`."""
    lut = np.empty(base + len(rows), dtype=np.int64)
    lut[np.fromiter(first.values(), dtype=np.int64, count=len(first))] = np.arange(len(first))
    codes = np.frombuffer(rows, dtype=np.int64)
    codes[:] = lut[codes]
    return codes


def _check_duplicates(workers, items, lines, worker_ids, item_ids) -> None:
    """Raise on the first row, in file order, that repeats a worker-item pair.

    Pairs are compared as one int64 key, exact below 2**31 workers and 2**32
    items; flat arrays and one sort keep this far smaller than a set of pairs.
    """
    pairs = workers << 32
    pairs |= items
    order = np.argsort(pairs, kind="stable")
    ranked = pairs[order]
    repeats = order[1:][ranked[1:] == ranked[:-1]]
    if len(repeats):
        r = int(repeats.min())
        raise LabelFileError(f"duplicate observation for worker {worker_ids[workers[r]]!r}, "
                             f"item {item_ids[items[r]]!r}", lines[r])


def _unwritable(x) -> bool:
    """Whether an id cannot be held by a labels file field."""
    return x != x.strip() or any(ch in x for ch in ",\r\n")


def from_triples(triples, num_classes, worker_ids=None, item_ids=None) -> LabelMatrix:
    """Build a LabelMatrix from (worker_id, item_id, label) triples.

    IDs are interned in first-appearance order; pre-seeded ID lists may be
    passed to register workers/items that have no observations. Errors name
    the triple's 1-based position. An id that a labels file cannot carry (a
    comma, a line break, or leading or trailing whitespace) is rejected, so
    write_labels output always loads back. A label is a string, read as a
    labels file field is, or an integral number; anything else is not an
    integer. num_classes must be at least 2.
    """
    rows = [(str(wid), str(iid), lab) for wid, iid, lab in triples]
    end = next((k for k, (wid, iid, _) in enumerate(rows)
                if _unwritable(wid) or _unwritable(iid)), len(rows))

    def chunks():
        wids, iids, labs = zip(*rows[:end]) if end else ((), (), ())
        yield range(1, end + 1), wids, iids, list(map(_triple_label, labs))
        if end < len(rows):
            wid, iid, lab = rows[end]
            bad = wid if _unwritable(wid) else iid
            raise LabelFileError(
                f"id {bad!r} in triple {(wid, iid, lab)!r} has a comma, a line "
                "break or surrounding whitespace, which a labels file cannot hold", end + 1)

    return _intern(chunks(), num_classes, 0, worker_ids, item_ids)


def _triple_label(lab):
    """A triple's label as the label rule reads it: a string as it is, an
    integral number as its int, anything else (None, 1.5, a list) as the text
    of its repr, which is not an integer."""
    if isinstance(lab, str):
        return lab
    try:
        value = int(lab)
    except (TypeError, ValueError, OverflowError):
        return repr(lab)
    return value if value == lab else repr(lab)


def _line_chunks(fh, first_line_no):
    """Yield (line number of the first line, lines) per chunk of a text file.

    Each chunk is _CHUNK_CHARS characters completed to a line end, split once
    into lines; line ends are already translated to "\\n" by the text layer.
    """
    n = first_line_no
    while chunk := fh.read(_CHUNK_CHARS):
        if not chunk.endswith("\n"):
            chunk += fh.readline()
        lines = chunk.split("\n")
        if chunk.endswith("\n"):
            lines.pop()
        yield n, lines
        n += len(lines)


def _first_ragged(lines, sep, width) -> int:
    """Index of the first line without exactly `width` sep-separated fields,
    or len(lines)."""
    counts = list(map(str.count, lines, repeat(sep)))
    if counts.count(width - 1) == len(counts):
        return len(lines)
    return next(k for k, c in enumerate(counts) if c != width - 1)


def _columns(path, fields):
    """Yield (line_nos, *columns) per chunk of a comma-separated file.

    Blank lines are skipped and a line-1 header equal to `fields` (case and
    padding aside) is dropped; fields are stripped of surrounding whitespace.
    Line numbers count every line. A line with the wrong field count raises
    after the rows before it are yielded, so callers see faults in file order.
    """
    width = len(fields)
    with open(path, encoding="utf-8-sig") as fh:  # a byte-order mark is not data
        for start, lines in _line_chunks(fh, 1):
            if start == 1 and [p.strip().lower() for p in lines[0].split(",")] == fields:
                lines[0] = ""  # optional header, skipped like a blank line
            line_nos = list(compress(range(start, start + len(lines)), lines))
            lines = list(filter(None, lines))
            r = _first_ragged(lines, ",", width)
            flat = list(map(str.strip, ",".join(lines[:r]).split(","))) if r else []
            yield (line_nos[:r], *(flat[k::width] for k in range(width)))
            if r < len(lines):
                raise LabelFileError(f"expected {width} comma-separated fields, "
                                     f"got {lines[r].count(',') + 1}", line_nos[r])


def load_labels(path, num_classes, label_base=0) -> LabelMatrix:
    """Load a `worker_id,item_id,label` CSV file into a LabelMatrix.

    label_base 1 shifts incoming labels down by one for datasets encoded 1..K;
    num_classes K must be at least 2.
    """
    if label_base not in (0, 1):
        raise ValueError("label_base must be 0 or 1")
    return _intern(_columns(path, ["worker", "item", "label"]), num_classes, label_base)


def _write_rows(path, header, row_format, columns) -> None:
    """Write a header line, then one `row_format % row` line per row of the
    equal-length array columns, formatting _WRITE_ROWS rows at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header)
        for lo in range(0, len(columns[0]), _WRITE_ROWS):
            block = (col[lo:lo + _WRITE_ROWS].tolist() for col in columns)
            fh.writelines(map(row_format.__mod__, zip(*block)))


def write_labels(labels: LabelMatrix, path, label_base=0) -> None:
    """Write the canonical labels file (inverse of load_labels)."""
    _write_rows(path, "worker,item,label\n", "%s,%s,%s\n", (
        np.asarray(labels.worker_ids, dtype=object)[labels.workers],
        np.asarray(labels.item_ids, dtype=object)[labels.items],
        labels.labels + label_base))


@dataclass(frozen=True)
class GoldLabels:
    """Partial map item_index -> true class, for evaluation."""

    by_item: dict[int, int] = field(default_factory=dict)

    def __len__(self):
        return len(self.by_item)


def _first_repeat(values, seen) -> int:
    """Index of the first value that is in `seen` or earlier in `values`."""
    seen = set(seen)
    for k, value in enumerate(values):
        if value in seen:
            return k
        seen.add(value)
    return len(values)


def load_gold(path, item_ids, num_classes, label_base=0) -> GoldLabels:
    """Load an `item_id,label` CSV keyed against a known item-ID order.

    Per row, in order: the item is known, the label passes the labels-file
    rule, and the item has no gold label on an earlier row.
    """
    by_item: dict[int, int] = {}
    item_index = {iid: i for i, iid in enumerate(item_ids)}
    codes = _LabelCodes(num_classes, label_base, _GOLD_FAULTS)
    for line_nos, iids, labs in _columns(path, ["item", "label"]):
        index = list(map(item_index.get, iids))
        classes, bad_label = codes.column(labs)
        chunk = dict(zip(index, classes))
        faults = [index.index(None)] if None in index else []
        if bad_label is not None:
            faults.append(bad_label)
        if len(chunk) < len(index) or not by_item.keys().isdisjoint(chunk):
            faults.append(_first_repeat(index, by_item))
        if faults:
            r = min(faults)
            if index[r] is None:
                raise LabelFileError(f"unknown item id {iids[r]!r}", line_nos[r])
            if labs[r] in codes.bad:
                raise LabelFileError(codes[labs[r]], line_nos[r])
            raise LabelFileError(f"second gold label for item {iids[r]!r}", line_nos[r])
        by_item.update(chunk)
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
    """Write the posterior TSV: item, argmax label, then 6-decimal probabilities.

    Raises ValueError, before the file is opened, naming the first item id that
    holds a tab, which would shift that row's columns.
    """
    if "\t" in "".join(labels.item_ids):
        tabbed = next(iid for iid in labels.item_ids if "\t" in iid)
        raise ValueError(f"item id {tabbed!r} has a tab, which a posterior file cannot hold")
    K = labels.num_classes
    header = "item\tpredicted\t" + "\t".join(f"p{k}" for k in range(K)) + "\n"
    row_format = "%s\t%s" + "\t%.6f" * posterior.shape[1] + "\n"
    _write_rows(path, header, row_format, (np.asarray(labels.item_ids, dtype=object),
                                           np.asarray(predicted), *posterior.T))


def _raise_posterior_fault(line_nos, preds, probs, K) -> None:
    """Raise the first row fault of a posterior chunk whose conversion failed:
    per row, the predicted label is an integer, then each probability a number."""
    for k, pred in enumerate(preds):
        try:
            array("q", [int(pred)])
        except ValueError:
            raise LabelFileError(f"predicted label {pred!r} is not an integer",
                                 line_nos[k]) from None
        try:
            array("d", map(float, probs[k * K:(k + 1) * K]))
        except ValueError as exc:
            raise LabelFileError(f"probability is not a number ({exc})", line_nos[k]) from None


def read_posterior(path):
    """Read a posterior TSV back as (item_ids, predicted, posterior).

    Fields are tab-separated and not stripped; whitespace-only lines are
    skipped. The file is read in chunks like the labels file.
    """
    with open(path, encoding="utf-8-sig") as fh:  # a byte-order mark is not data
        header = fh.readline().rstrip("\n").split("\t")
        if tuple(header[:2]) != POSTERIOR_HEADER_PREFIX:
            raise LabelFileError("not a posterior file: bad header", 1)
        width = len(header)
        ids, preds, probs = [], array("q"), array("d")  # flat buffers, no per-row objects
        for start, lines in _line_chunks(fh, 2):
            keep = list(map(str.strip, lines))
            line_nos = list(compress(range(start, start + len(lines)), keep))
            lines = list(compress(lines, keep))
            r = _first_ragged(lines, "\t", width)
            flat = "\t".join(lines[:r]).split("\t") if r else []
            ids += flat[0::width]
            del flat[0::width]
            pred_texts = flat[0::width - 1]
            del flat[0::width - 1]  # leaves the probabilities, row by row
            try:
                preds += array("q", map(int, pred_texts))
                probs += array("d", map(float, flat))
            except (ValueError, OverflowError):
                _raise_posterior_fault(line_nos, pred_texts, flat, width - 2)
                raise
            if r < len(lines):
                raise LabelFileError("wrong number of columns", line_nos[r])
    return ids, np.array(preds, dtype=np.int64), np.array(probs).reshape(len(ids), width - 2)
