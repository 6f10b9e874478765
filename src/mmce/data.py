"""Sparse (worker, item, label) observation store, dataset statistics, and the
labels, gold and posterior file formats, read and written in fixed-size chunks."""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np


class LabelFileError(ValueError):
    """Raised on malformed labels, gold and posterior files (carries the
    offending line number)."""

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

    def subset(self, mask: np.ndarray) -> "LabelMatrix":
        """Restrict to the observations selected by a boolean or index mask.

        ID maps and counts are preserved so indices stay comparable.
        """
        return LabelMatrix(
            num_workers=self.num_workers,
            num_items=self.num_items,
            num_classes=self.num_classes,
            workers=self.workers[mask],
            items=self.items[mask],
            labels=self.labels[mask],
            worker_ids=self.worker_ids,
            item_ids=self.item_ids,
        )


# Characters read per chunk before the chunk is completed to a line end. The
# readers hold one chunk's bytes and field bounds at a time, and tokenize it
# with a fixed number of numpy calls, so small chunks cost time and large ones
# memory. On a 500k-line labels file of ids up to 7 bytes (one core of a
# 2-vCPU x86-64 VM), load_labels took 0.45 s at 4K characters, 0.24 s at 16K,
# 0.19 s at 64K, 0.18 s at 256K and 0.19 s at 1M; its traced peak was
# 29.2-29.4 MB up to 256K and 33.3 MB at 1M (read_posterior on a 100k-row,
# 4-class posterior: 11.9 MB at 64K, 22.1 MB at 1M). Ids of 100 bytes, which
# fill a chunk with fewer rows, loaded in 1.27 s at 64K and 1.02 s at 256K,
# but 256K raised the peak RSS of the perfbench ingest child (aggregate and
# evaluate on the short-id file) from about 123 MB to 126-128 MB.
_CHUNK_CHARS = 1 << 16
# Rows formatted per block when writing, so the transient memory of a write
# does not grow with file length.
_WRITE_ROWS = 1 << 12

_LABEL_FAULTS = ("label {!r} is not an integer",
                 "label {} out of range (valid labels are {}..{})")
_GOLD_FAULTS = ("gold label {!r} is not an integer", "gold label {} out of range")

# Bytes that str.strip may remove, and every byte of a non-ASCII character: a
# field with one of them at an edge is stripped in Python, all others never are.
_EDGE = np.array([chr(b).isspace() or b >= 0x80 for b in range(256)])
# _MASKS[n] keeps the low n bytes of a word.
_MASKS = np.array([(1 << 8 * n) - 1 for n in range(8)], dtype=np.uint64)
# "000" to "999" as ASCII digits in the low 3 bytes of a little-endian word:
# the two 3-digit groups of a %.6f fraction. (Built from bytes: computing it
# with integer ufuncs at import raised the import's peak RSS by 0.3 MB.)
_DIGITS3 = np.frombuffer(b"".join(b"%03d\0\0\0\0\0" % k for k in range(1000)), "<u8")
# Zero bytes after every parsed buffer, so 8 bytes can be read at any field start.
_PAD = bytes(8)
# The low byte of a long field's key.
_LONG = 0xFF


class _LabelCodes(dict):
    """Cache from a label as read to its 0-based class, or to a negative code
    when it faults, so each distinct label is validated once.

    A label is an integer in label_base..num_classes-1+label_base; a
    label_base other than 0 or 1, or fewer than 2 classes, is refused here.
    `messages` holds the formats of the two faults (not an integer, out of
    range); each faulting label has its own code, with its message at
    bad[-1 - code].
    """

    def __init__(self, num_classes, label_base, messages):
        if label_base not in (0, 1):
            raise ValueError("label_base must be 0 or 1")
        if num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {num_classes}")
        super().__init__()
        self.base, self.top, self.messages = label_base, num_classes - 1 + label_base, messages
        self.bad = []

    def __missing__(self, lab):
        try:
            value = int(lab)
        except ValueError:
            self.bad.append(self.messages[0].format(lab))
        else:
            if self.base <= value <= self.top:
                self[lab] = value - self.base
                return value - self.base
            self.bad.append(self.messages[1].format(value, self.base, self.top))
        self[lab] = code = -len(self.bad)
        return code

    def classes(self, labels, inverse) -> np.ndarray:
        """The classes of rows holding labels[inverse], negative where a label faults."""
        return np.fromiter(map(self.__getitem__, labels), np.int64, len(labels))[inverse]


class _Keys(dict):
    """One uint64 key per field, equal exactly when two fields are, for
    every field that one reader or interner sees.

    A field of at most 7 UTF-8 bytes is its own key: its length in the low
    byte, then its bytes, little-endian. A longer field's key is _LONG in the
    low byte and, above it, its number in `texts`, the long fields' bytes in
    the order first seen; this dict maps each of them to its key. So a key
    costs 8 bytes per row whatever a field's length, and a long field one
    bytes slice and one dict lookup.
    """

    def __init__(self):
        super().__init__()
        self.texts = []

    def __missing__(self, raw):
        self[raw] = key = len(self.texts) << 8 | _LONG
        self.texts.append(raw)
        return key

    def pack(self, buf, starts, ends) -> np.ndarray:
        """Keys of the fields buf[starts:ends] (buf ends with _PAD)."""
        n = ends - starts
        windows = np.ndarray(len(buf) - 7, "<u8", buf, strides=(1,))  # 8 bytes from each position
        keys = windows[starts] & _MASKS.take(np.minimum(n, 7))  # take would copy `windows`
        keys <<= 8
        keys |= n.astype(np.uint64)
        long = np.flatnonzero(n > 7)
        if len(long):
            raw = buf.tobytes()
            fields = [raw[a:b] for a, b in zip(starts[long].tolist(), ends[long].tolist())]
            keys[long] = np.fromiter(map(self.__getitem__, fields), np.uint64, len(long))
        return keys

    def of(self, strings) -> np.ndarray:
        """Keys of strings (a sequence of str)."""
        if all(map(str.isascii, strings)):  # a byte per character: one encode serves all
            raw, text = strings, "".join(strings).encode()
        else:
            raw = [s.encode("utf-8", "surrogatepass") for s in strings]
            text = b"".join(raw)
        lengths = np.fromiter(map(len, raw), np.int64, len(raw))
        buf = np.frombuffer(text + _PAD, dtype=np.uint8)
        del raw, text  # not held while pack slices the long fields from buf
        ends = np.cumsum(lengths)
        return self.pack(buf, ends - lengths, ends)

    def decode(self, keys) -> list:
        """The fields that keys hold, as str; the short ones hold no comma.
        Needs only `texts`, so it works after the dict is cleared."""
        n = (keys & 0xFF).astype(np.int64)
        long = np.flatnonzero(n == _LONG)
        n[long] = 0
        flat = np.zeros((len(n), 9), dtype=np.uint8)
        flat[:, :8] = np.ascontiguousarray(keys, dtype="<u8").view(np.uint8).reshape(-1, 8)
        flat[np.arange(len(n)), n + 1] = ord(",")
        cols = np.arange(9)
        text = flat[(cols >= 1) & (cols <= n[:, None] + 1)].tobytes()
        fields = text.decode("utf-8", "surrogatepass").split(",")[:-1]
        for k, number in zip(long, keys[long] >> 8):  # numpy scalars: no list of ints
            fields[k] = self.texts[number].decode("utf-8", "surrogatepass")
        return fields


class _Rows:
    """Arrays appended chunk by chunk into one array that grows by half in
    place when full and is cut to size at the end (both by realloc, so
    neither holds the rows twice; growing by half, not doubling, keeps the
    unused tail of a full array at most a third of it). A file's rows then
    live in one large block, which the allocator maps apart and returns
    whole, not in one small block per chunk among the chunks' temporaries.
    No view of `data` lives across a resize, so the resizes skip numpy's
    reference count check, which a profiler holding a bound method of `data`
    would fail."""

    def __init__(self, first: np.ndarray):
        self.data, self.used = first.copy(), len(first)

    def append(self, part: np.ndarray) -> None:
        if self.used + len(part) > len(self.data):
            self.data.resize(max(len(self.data) * 3 // 2, self.used + len(part)), refcheck=False)
        self.data[self.used:self.used + len(part)] = part
        self.used += len(part)

    def array(self) -> np.ndarray:
        """The rows appended; ends the appending."""
        if len(self.data) > self.used:
            self.data.resize(self.used, refcheck=False)
        return self.data


def _groups(keys):
    """Sort keys into runs of equal keys: (order, first, heads), where heads
    are the sorted positions where runs start and first the smallest index of
    each run."""
    order = np.argsort(keys)
    ranked = keys[order]
    heads = np.empty(len(order), dtype=bool)
    heads[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=heads[1:])
    del ranked
    heads = np.flatnonzero(heads)
    return order, (np.minimum.reduceat(order, heads) if len(order) else heads), heads


def _rank(keys, codes=None):
    """(codes, first): a dense code per key, numbered by first appearance and
    written to `codes` if given, and the index where each code first appears."""
    order, first, heads = _groups(keys)
    by_appearance = np.argsort(first)
    rank = np.empty(len(first), dtype=np.int64)
    rank[by_appearance] = np.arange(len(first))
    if codes is None:
        codes = np.empty(len(order), dtype=np.int64)
    codes[order] = np.repeat(rank, np.diff(heads, append=len(order)))
    return codes, first[by_appearance]


def _read_rows(chunks, codes, known):
    """(skips, columns, classes, error) of row chunks (skips, key columns,
    labels, inverse), whose rows hold labels[inverse].

    Each column holds its `known` keys, then the key of every row read;
    `classes` holds each row's class from `codes`, negative where its label
    faults, and `skips` the (sorted) rows before each skipped line.
    Reading stops after the chunk that holds the first faulting label, or at
    what the chunks raise (a ragged line, undecodable text): that error is
    returned, not raised, as a fault on an earlier row comes first.
    """
    columns = [_Rows(keys) for keys in known]
    classes = _Rows(np.empty(0, np.int64))
    skips, error = [], None
    try:
        for chunk_skips, keys, labels, inverse in chunks:
            skips += chunk_skips
            for column, part in zip(columns, keys):
                column.append(part)
            classes.append(codes.classes(labels, inverse))
            if codes.bad:  # the first faulting label is in this chunk
                break
    except Exception as exc:
        error = exc
    return skips, [column.array() for column in columns], classes.array(), error


def _raise_first(skips, error, *rules) -> None:
    """Raise the fault of the earliest faulting row, naming its line (from
    `skips`, the sorted rows before each skipped line), else `error` if any.

    Each rule is (faulting rows, message of a row): a boolean mask over the
    rows, and a function from a row to its message. On one row the earlier
    rule wins.
    """
    firsts = [(int(rows.argmax()), k) for k, (rows, _) in enumerate(rules) if rows.any()]
    if firsts:
        row, k = min(firsts)
        raise LabelFileError(rules[k][1](row), row + 1 + bisect_right(skips, row))
    if error is not None:
        raise error


def _repeats(keys) -> np.ndarray:
    """Whether each row's key is on an earlier row. A sort of the values finds
    whether any key repeats; rows are ordered only when one does."""
    ranked = np.sort(keys)
    if not (ranked[1:] == ranked[:-1]).any():
        return np.zeros(len(keys), dtype=bool)
    del ranked
    first = _groups(keys)[1]  # before the mask, which is not held while sorting
    repeats = np.ones(len(keys), dtype=bool)
    repeats[first] = False
    return repeats


def _intern(chunks, table, num_classes, label_base, worker_ids=None,
            item_ids=None) -> LabelMatrix:
    """Validate row chunks of worker and item keys from `table` (see
    _read_rows) into a LabelMatrix.

    Every rule for one observation lives here: ids are non-empty, the label is
    an integer in label_base..num_classes-1+label_base, and a worker labels an
    item at most once. The first fault in file order is raised, naming its
    line; on one row, the first in that order. IDs are interned in
    first-appearance order, after the pre-registered worker_ids/item_ids, by
    one sort of each id column. Fewer than 2 classes is rejected before any
    row is read.
    """
    codes = _LabelCodes(num_classes, label_base, _LABEL_FAULTS)
    known = [list(dict.fromkeys(map(str, ids or ()))) for ids in (worker_ids, item_ids)]
    skips, columns, labels, error = _read_rows(chunks, codes, [table.of(ids) for ids in known])
    # Every row is packed, so the dict of long fields goes (decode needs only
    # table.texts). Then results are allocated before any large temporary is
    # freed, and ids are decoded after the last one is, so no result lies
    # between freed temporaries, which the allocator could then not hand back.
    table.clear()
    out = [np.empty(len(column), np.int64) for column in columns]
    firsts = []
    for ranks in out:  # one id column's rows at a time
        rows = columns.pop(0)
        firsts.append(rows[_rank(rows, ranks)[1]])
        del rows
    w_keys, i_keys = firsts
    workers, items = out[0][len(known[0]):], out[1][len(known[1]):]
    # Pairs are compared as one int64 key, exact below 2**31 workers and 2**32
    # items; flat arrays and one sort keep this far smaller than a set of pairs.
    pairs = workers << 32
    pairs |= items
    repeats = _repeats(pairs)
    del pairs

    def duplicate(r):
        pair = table.decode(np.array([w_keys[workers[r]], i_keys[items[r]]]))
        return "duplicate observation for worker {!r}, item {!r}".format(*pair)

    empty = np.zeros(len(workers), dtype=bool)
    if not (w_keys.all() and i_keys.all()):  # some distinct id is empty (key 0)
        empty = (w_keys == 0)[workers] | (i_keys == 0)[items]
    _raise_first(skips, error, (empty, lambda r: "empty worker or item id"),
                 (labels < 0, lambda r: codes.bad[-1 - labels[r]]), (repeats, duplicate))
    del empty, repeats
    return LabelMatrix(
        num_workers=len(w_keys),
        num_items=len(i_keys),
        num_classes=int(num_classes),
        workers=workers,
        items=items,
        labels=labels,
        worker_ids=(*known[0], *table.decode(w_keys[len(known[0]):])),
        item_ids=(*known[1], *table.decode(i_keys[len(known[1]):])),
    )


def _unwritable(x) -> bool:
    """Whether an id cannot be held by a labels file field."""
    return x != x.strip() or any(ch in x for ch in ",\r\n")


def from_triples(triples, num_classes, worker_ids=None, item_ids=None) -> LabelMatrix:
    """Build a LabelMatrix from (worker_id, item_id, label) triples.

    IDs are interned in first-appearance order; pre-seeded ID lists may be
    passed to register workers/items that have no observations. Errors name
    the triple's 1-based position. An id that a labels file cannot carry (a
    comma, a line break, or leading or trailing whitespace) is rejected, so
    every matrix built here can be written as a labels file that loads back.
    A label is a string, read as a labels file field is, or an integral
    number; anything else is not an integer. num_classes must be at least 2.
    """
    rows = [(str(wid), str(iid), lab) for wid, iid, lab in triples]
    end = next((k for k, (wid, iid, _) in enumerate(rows)
                if _unwritable(wid) or _unwritable(iid)), len(rows))

    table = _Keys()

    def chunks():
        wids, iids, labs = zip(*rows[:end]) if end else ((), (), ())
        labs = list(map(_triple_label, labs))
        index = {lab: k for k, lab in enumerate(dict.fromkeys(labs))}
        yield ([], [table.of(wids), table.of(iids)], list(index),
               np.fromiter(map(index.__getitem__, labs), np.int64, len(labs)))
        if end < len(rows):
            wid, iid, lab = rows[end]
            bad = wid if _unwritable(wid) else iid
            raise LabelFileError(
                f"id {bad!r} in triple {(wid, iid, lab)!r} has a comma, a line "
                "break or surrounding whitespace, which a labels file cannot hold", end + 1)

    return _intern(chunks(), table, num_classes, 0, worker_ids, item_ids)


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


def _chunks(fh, sep):
    """Yield (buf, stops, starts, ends, widths) per chunk of a text file.

    A chunk is _CHUNK_CHARS characters completed to a line end; the text layer
    has already turned every line end into "\\n". `buf` holds the chunk's
    UTF-8 bytes, a "\\n" after a last line that lacks one, then _PAD.
    `stops` are the positions of its `sep` and "\\n" bytes; each line runs
    from starts[k] to its "\\n" at ends[k] and holds widths[k] fields.
    """
    while text := fh.read(_CHUNK_CHARS):
        if not text.endswith("\n"):
            text += fh.readline()
        tail = _PAD if text.endswith("\n") else b"\n" + _PAD
        buf = np.frombuffer(text.encode() + tail, dtype=np.uint8)
        stops = np.flatnonzero((buf == ord(sep)) | (buf == 10))
        at = np.flatnonzero(buf[stops] == 10)
        ends = stops[at]
        yield buf, stops, np.concatenate(([0], ends[:-1] + 1)), ends, np.diff(at, prepend=-1)


def _csv_rows(path, fields, table):
    """Yield (skips, keys, labels, inverse) per chunk of a comma-separated
    file whose last field is a label: keys holds the keys, from `table`, of
    each other field, and the rows hold labels[inverse].

    Empty lines are skipped and a line-1 header equal to `fields` (case and
    padding aside) is dropped; `skips` holds the number of rows before each
    skipped line, from which a row's line number is recovered. Fields
    are stripped as str.strip does. A line with the wrong field count raises
    after the rows before it are yielded, so callers see faults in file order.
    """
    width, rows, line_no = len(fields), 0, 1
    with open(path, encoding="utf-8-sig") as fh:  # a byte-order mark is not data
        for buf, stops, starts, ends, widths in _chunks(fh, ","):
            skip = starts == ends
            if line_no == 1 and [p.strip().lower() for p in
                                 buf[:ends[0]].tobytes().decode().split(",")] == fields:
                skip[0] = True  # optional header, skipped like a blank line
            r, field_starts, field_ends = _fields(stops, ~skip, widths, width)
            at = np.flatnonzero(skip[:r])
            *keys, labels = [table.pack(buf, *_strip(buf, s, e))
                             for s, e in zip(field_starts.T, field_ends.T)]
            inverse, first = _rank(labels)  # only the distinct labels are decoded
            yield ((rows + at - np.arange(len(at))).tolist(), keys, table.decode(labels[first]),
                   inverse)
            if r < len(ends):
                raise LabelFileError(f"expected {width} comma-separated fields, "
                                     f"got {widths[r]}", line_no + r)
            rows += len(field_ends)
            line_no += len(ends)


def _fields(stops, keep, widths, width):
    """(r, starts, ends) of a chunk whose lines to read are `keep`: r is
    the first of them without `width` fields, or the line count, and `keep`
    is cut there in place; starts/ends bound the kept lines' fields, one row
    per line."""
    ragged = np.flatnonzero(keep & (widths != width))
    r = int(ragged[0]) if len(ragged) else len(keep)
    keep[r:] = False
    take = np.repeat(keep, widths)
    field_starts = np.concatenate(([0], stops[:-1] + 1))
    return r, field_starts[take].reshape(-1, width), stops[take].reshape(-1, width)


def _strip(buf, starts, ends):
    """(starts, ends) of the fields buf[starts:ends] without the whitespace
    that str.strip removes."""
    edge = _EDGE.take(buf.take(starts)) | _EDGE.take(buf.take(ends - 1))
    edge = np.flatnonzero(edge & (ends > starts))
    if len(edge):
        starts, ends = starts.copy(), ends.copy()
        for k in edge.tolist():
            raw = buf[starts[k]:ends[k]].tobytes()
            text = raw.decode().lstrip()
            starts[k] += len(raw) - len(text.encode())
            ends[k] = starts[k] + len(text.rstrip().encode())
    return starts, ends


def load_labels(path, num_classes, label_base=0) -> LabelMatrix:
    """Load a `worker_id,item_id,label` CSV file into a LabelMatrix.

    label_base 1 shifts incoming labels down by one for datasets encoded 1..K;
    num_classes K must be at least 2. Worker and item ids come only from rows
    that pass every rule, and a faulty row raises, so every worker and every
    item of the result has at least one label.
    """
    table = _Keys()
    return _intern(_csv_rows(path, ["worker", "item", "label"], table), table, num_classes,
                   label_base)


def _write_rows(path, header, row_format, columns) -> None:
    """Write a header line, then one `row_format % row` line per row of the
    equal-length array columns, formatting _WRITE_ROWS rows at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header)
        for lo in range(0, len(columns[0]), _WRITE_ROWS):
            fh.writelines(_lines(row_format, [col[lo:lo + _WRITE_ROWS] for col in columns]))


def _lines(row_format, columns):
    """The `row_format % row` line of each row of the equal-length array columns."""
    return map(row_format.__mod__, zip(*(col.tolist() for col in columns)))


@dataclass(frozen=True)
class GoldLabels:
    """Partial map item_index -> true class, for evaluation."""

    by_item: dict[int, int] = field(default_factory=dict)

    def __len__(self):
        return len(self.by_item)


def _scored_gold(gold: GoldLabels, n: int):
    """(items, truth): the gold items that a table of n items holds, keys in
    0..n-1, in gold order, and their true classes."""
    items = np.fromiter(gold.by_item.keys(), dtype=np.int64, count=len(gold.by_item))
    truth = np.fromiter(gold.by_item.values(), dtype=np.int64, count=len(items))
    keep = (items >= 0) & (items < n)
    return items[keep], truth[keep]


def load_gold(path, item_ids, num_classes, label_base=0) -> GoldLabels:
    """Load an `item_id,label` CSV keyed against a known item-ID order.

    Per row, in order: the item is known, the label passes the labels-file
    rule, and the item has no gold label on an earlier row. The first fault in
    file order is raised, as by load_labels. Gold ids are joined to item_ids
    (the last of equal ids wins) by one sort of both.
    """
    codes = _LabelCodes(num_classes, label_base, _GOLD_FAULTS)
    table = _Keys()
    known = len(item_ids)
    skips, (keys,), gold, error = _read_rows(_csv_rows(path, ["item", "label"], table), codes,
                                             [table.of(item_ids)])
    ranks, first = _rank(keys)
    last = np.full(len(first), -1, dtype=np.int64)  # per id, its last item index
    np.maximum.at(last, ranks[:known], np.arange(known))
    ranks = ranks[known:]
    index = last[ranks]

    def item(r):
        return table.decode(keys[known + r:known + r + 1])[0]

    _raise_first(skips, error, (index < 0, lambda r: f"unknown item id {item(r)!r}"),
                 (gold < 0, lambda r: codes.bad[-1 - gold[r]]),
                 (_repeats(ranks), lambda r: f"second gold label for item {item(r)!r}"))
    return GoldLabels(dict(zip(index.tolist(), gold.tolist())))


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
    """Dataset counts, mean labels per worker/item, optional worker error vs
    gold, on the gold items of the matrix (keys in 0..num_items-1)."""
    avg_err = None
    if gold is not None:
        items, truth = _scored_gold(gold, labels.num_items)
        lut = np.full(labels.num_items, -1, dtype=np.int64)
        lut[items] = truth
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


def _check_posterior_ids(item_ids) -> None:
    """Raise ValueError naming the first item id that holds a tab, which
    would shift that row's columns in a posterior file."""
    if "\t" in "".join(item_ids):
        tabbed = next(iid for iid in item_ids if "\t" in iid)
        raise ValueError(f"item id {tabbed!r} has a tab, which a posterior file cannot hold")


def write_posterior(path, labels: LabelMatrix, posterior: np.ndarray,
                    predicted: np.ndarray) -> None:
    """Write the posterior TSV: item, argmax label, then 6-decimal probabilities.

    The bytes are those of one `"%s\\t%s" + "\\t%.6f" * K` line per row: a
    block of rows is built by _posterior_block or, where it cannot, by `%`.
    Raises ValueError before the file is opened if the posterior is not
    (items, K), predicted not one integer label per item, or naming the first
    item id that holds a tab, which would shift that row's columns.
    """
    n, K = labels.num_items, labels.num_classes
    posterior, predicted = np.asarray(posterior), np.asarray(predicted)
    if posterior.shape != (n, K) or predicted.shape != (n,):
        raise ValueError(f"a posterior of shape {posterior.shape} with predicted labels of "
                         f"shape {predicted.shape} does not fit {n} items and {K} classes")
    if predicted.dtype.kind not in "iu":  # read_posterior reads integers only
        raise ValueError(f"predicted labels of dtype {predicted.dtype} are not integers")
    _check_posterior_ids(labels.item_ids)
    header = "item\tpredicted\t" + "\t".join(f"p{k}" for k in range(K)) + "\n"
    row_format = "%s\t%s" + "\t%.6f" * K + "\n"
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for lo in range(0, n, _WRITE_ROWS):
            ids, pred, post = (col[lo:lo + _WRITE_ROWS]
                               for col in (labels.item_ids, predicted, posterior))
            block = _posterior_block(ids, pred, post)
            if block is None:
                ids = np.array(ids, dtype=object)
                block = "".join(_lines(row_format, (ids, pred, *post.T))).encode()
            fh.write(block)
            del block  # not held while the next block is built


def _posterior_block(ids, predicted, posterior) -> np.ndarray | None:
    """The UTF-8 bytes of a block's `"%s\\t%s" + "\\t%.6f" * K` lines, built
    with a fixed set of numpy calls, or None where they would not be exact.

    A probability p is written as the digits of rint(p * 1e6). That is %.6f
    where 0 <= p and p * 1e6 is not within 1e-6 of a rounding tie: the product
    is below 1e7 < 2**24, so its rounding error is below 2e-9. A block holding
    another value (a near-tie, -0.0, NaN, an infinity, a negative value, one
    that rounds to 10 or more), a negative predicted label, or a probability
    that float64 cannot hold exactly gives None.
    """
    if not np.can_cast(posterior.dtype, np.float64):
        return None
    n, K = posterior.shape
    p = posterior.astype(np.float64, copy=False)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN are not exact
        scaled = p * 1e6
        units = np.rint(scaled)
        exact = (units < 1e7) & (p >= 0) & ~np.signbit(p) & (abs(scaled - units) < 0.5 - 1e-6)
    del scaled, p
    if not exact.all() or predicted.min(initial=0) < 0:
        return None
    # A row's bytes after its id and tab: the predicted label in D digits,
    # then per probability a tab and d.dddddd (one word), then the line end.
    D = len(str(predicted.max(initial=0)))
    T = D + 9 * K + 1
    tail = np.empty((n, T), dtype=np.uint8)
    keep = np.ones(tail.shape, dtype=bool) if D > 1 else None
    for d in range(D - 1, -1, -1):
        predicted, digit = np.divmod(predicted, 10)
        tail[:, d] = digit + ord("0")
        if d:
            keep[:, d - 1] = predicted > 0  # a leading zero is dropped
    tail[:, D:-1:9], tail[:, -1] = ord("\t"), ord("\n")
    # units holds integers below 1e7, so these float floors are exact
    words = np.ndarray((n, K), "<u8", tail, D + 1, (T, 9))
    whole = np.floor(units / 1e6)
    units -= whole * 1e6
    np.add(whole, ord(".") << 8 | ord("0"), out=words, casting="unsafe")
    whole = np.floor(units / 1e3)
    units -= whole * 1e3
    words |= _DIGITS3[whole.astype(np.intp)] << 16
    words |= _DIGITS3[units.astype(np.intp)] << 40
    del units, whole
    raw = np.frombuffer(("\t".join(ids) + "\t").encode(), dtype=np.uint8)  # each id and its tab
    lengths = np.empty(2 * n, dtype=np.int64)
    lengths[0::2] = np.diff(np.flatnonzero(raw == ord("\t")), prepend=-1)
    lengths[1::2] = T if keep is None else keep.sum(axis=1)
    is_text = np.repeat(np.tile([True, False], n), lengths)
    out = np.empty(len(is_text), dtype=np.uint8)
    out[is_text] = raw
    del raw
    out[np.logical_not(is_text, out=is_text)] = tail.ravel() if keep is None else tail[keep]
    return out


def read_posterior(path):
    """Read a posterior TSV back as (item_ids, predicted, posterior).

    The file is read in chunks like the labels file. A chunk whose every line
    has the header's field count, a predicted label of 1 to 18 ASCII digits
    and probabilities of the form d.dddddd (the writer's form) is parsed in
    numpy (see _digits and _fixed6); any other chunk is read line by line by
    _posterior_lines. Both give the values that int and float give.
    """
    with open(path, encoding="utf-8-sig") as fh:  # a byte-order mark is not data
        header = fh.readline().rstrip("\n").split("\t")
        if tuple(header[:2]) != POSTERIOR_HEADER_PREFIX:
            raise LabelFileError("not a posterior file: bad header", 1)
        width, line_no = len(header), 2
        ids, preds, probs = [], _Rows(np.empty(0, np.int64)), _Rows(np.empty(0))
        for buf, stops, starts, ends, widths in _chunks(fh, "\t"):
            r, s, e = _fields(stops, np.ones(len(ends), dtype=bool), widths, width)
            pred, pred_ok = _digits(buf, s[:, 1], e[:, 1])
            prob, prob_ok = _fixed6(buf, s[:, 2:].ravel(), e[:, 2:].ravel())
            if r == len(ends) and pred_ok.all() and prob_ok.all():
                # every line's id with the tab after it, decoded and split at once
                is_id = np.zeros(len(stops), dtype=bool)
                is_id[::width] = True
                id_bytes = buf[:-len(_PAD)][np.repeat(is_id, np.diff(stops, prepend=-1))]
                chunk_ids = id_bytes.tobytes().decode().split("\t")[:-1]
            else:
                text = buf[:-len(_PAD)].tobytes().decode()
                chunk_ids, pred, prob = _posterior_lines(text, width, line_no)
            ids += chunk_ids
            preds.append(pred)
            probs.append(prob)
            line_no += len(ends)
    return ids, preds.array(), probs.array().reshape(len(ids), width - 2)


def _posterior_lines(text, width, line_no):
    """(ids, predicted, probabilities) of a chunk's text, whose first line is
    line_no, read line by line: a whitespace-only line is skipped; any other
    has `width` tab-separated fields, the id, a predicted label that int reads
    and int64 holds, then probabilities that float reads. The first fault
    raises, naming its line."""
    ids, preds, probs = [], array("q"), array("d")
    for n, line in enumerate(text.split("\n"), start=line_no):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != width:
            raise LabelFileError("wrong number of columns", n)
        try:
            preds.append(int(fields[1]))
        except ValueError:
            raise LabelFileError(f"predicted label {fields[1]!r} is not an integer", n) from None
        except OverflowError:
            raise LabelFileError(f"predicted label {fields[1]!r} does not fit in 64 bits",
                                 n) from None
        try:
            probs.extend(map(float, fields[2:]))
        except ValueError as exc:
            raise LabelFileError(f"probability is not a number ({exc})", n) from None
        ids.append(fields[0])
    return ids, preds, probs


def _digits(buf, starts, ends):
    """(values, ok): the fields buf[starts:ends] (buf ends with _PAD) that
    hold 1 to 18 ASCII digits, as int64 where ok, which is what int gives."""
    n = ends - starts
    ok = (n >= 1) & (n <= 18)
    values = np.zeros(len(n), dtype=np.int64)
    for k in range(min(int(n.max(initial=0)), 18)):
        digit = buf.take(starts + k, mode="clip").astype(np.int64) - ord("0")
        inside = k < n
        ok &= ~inside | ((digit >= 0) & (digit <= 9))
        values = np.where(inside, values * 10 + digit, values)
    return values, ok


def _fixed6(buf, starts, ends):
    """(values, ok): the fields buf[starts:ends] (buf ends with _PAD) of the
    form d.dddddd, as float64 where ok.

    The 8 bytes of a field are read as one little-endian word and its 7
    digits combined in place (the '.' is a 0 digit), giving n = d * 10**6 +
    dddddd. n and 10**6 are exact doubles and IEEE division rounds correctly,
    so n / 1e6 is the double nearest the field's value, as float gives.
    """
    windows = np.ndarray(len(buf) - 7, "<u8", buf, strides=(1,))  # 8 bytes from each position
    word = windows[starts] ^ np.uint64(0x3030303030302E30)  # digits to 0..9, '.' to 0
    ok = (ends - starts == 8) & (word & np.uint64(0xFF00) == 0)
    # every byte is at most 9: none has its top bit set, before or after adding 0x76
    ok &= (word | (word + np.uint64(0x7676767676767676))) & np.uint64(0x8080808080808080) == 0
    number = (word * np.uint64(10) + (word >> np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    number = (number * np.uint64(100) + (number >> np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    number = (number * np.uint64(10000) + (number >> np.uint64(32))) & np.uint64(0xFFFFFFFF)
    number -= np.uint64(9000000) * (word & np.uint64(0xFF))  # d was read as d * 10**7
    return number.astype(np.float64) / 1e6, ok
