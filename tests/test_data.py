import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmce import data
from mmce.data import (
    GoldLabels,
    LabelFileError,
    from_triples,
    load_gold,
    load_labels,
    read_posterior,
    summarize,
    write_labels,
    write_posterior,
)

from conftest import write_csv


class TestLoadLabels:
    def test_basic_parse(self, tmp_path):
        p = write_csv(tmp_path / "l.csv", [("w1", "i1", 0), ("w2", "i1", 1), ("w1", "i2", 1)])
        lm = load_labels(p, 2)
        assert (lm.num_workers, lm.num_items, lm.num_labels) == (2, 2, 3)
        assert lm.workers.tolist() == [0, 1, 0]
        assert lm.items.tolist() == [0, 0, 1]
        assert lm.labels.tolist() == [0, 1, 1]

    def test_header_is_optional(self, tmp_path):
        p = write_csv(tmp_path / "l.csv", [("a", "b", 1)], header="worker,item,label")
        assert load_labels(p, 2).num_labels == 1

    def test_out_of_range_label(self, tmp_path):
        p = write_csv(tmp_path / "l.csv", [("w", "i", 7)])
        with pytest.raises(LabelFileError, match="0..6"):
            load_labels(p, 7)

    @pytest.mark.parametrize("classes", [1, 0, -3])
    def test_fewer_than_two_classes_rejected(self, tmp_path, classes):
        p = write_csv(tmp_path / "l.csv", [("w", "i", 0)])
        with pytest.raises(ValueError, match=f"^need at least 2 classes, got {classes}$"):
            load_labels(p, classes)

    def test_duplicate_pair_rejected(self, tmp_path):
        p = write_csv(tmp_path / "l.csv", [("w", "i", 0), ("w", "i", 1)])
        with pytest.raises(LabelFileError, match="duplicate"):
            load_labels(p, 2)

    def test_parse_error_carries_line_number(self, tmp_path):
        p = write_csv(tmp_path / "l.csv", [("w", "i", 0), ("broken-line",)])
        with pytest.raises(LabelFileError, match="line 2"):
            load_labels(p, 2)

    @pytest.mark.parametrize("row, message", [
        ("w1,i1,1", "duplicate observation for worker 'w1', item 'i1'"),
        (",i2,1", "empty worker or item id"),
        ("w1,i2,x", "label 'x' is not an integer"),
    ])
    def test_errors_name_the_file_line(self, tmp_path, row, message):
        # a header and a blank line precede the bad row, which is line 4
        p = tmp_path / "l.csv"
        p.write_text(f"worker,item,label\nw1,i1,0\n\n{row}\n")
        with pytest.raises(LabelFileError, match=f"^line 4: {message}$") as err:
            load_labels(p, 2)
        assert err.value.line_no == 4

    @pytest.mark.parametrize("rows, message", [
        ("w1,i1,1\nw2,i1,9\n", "line 3: duplicate observation for worker 'w1', item 'i1'"),
        ("w2,i1,9\nw1,i1,1\n", "line 3: label 9 out of range"),
        ("w1,i1,1\nw2,i1\n", "line 3: duplicate observation"),
        ("w2,i2,0\nw1,i2,0\nw2,i2,1\nw1,i1,0\n", "line 5: duplicate observation "
                                                  "for worker 'w2', item 'i2'"),
    ])
    def test_first_fault_in_file_order_is_reported(self, tmp_path, rows, message):
        p = tmp_path / "l.csv"
        p.write_text(f"worker,item,label\nw1,i1,0\n{rows}")
        with pytest.raises(LabelFileError, match=f"^{message}"):
            load_labels(p, 2)

    def test_label_base_one(self, tmp_path):
        p = write_csv(tmp_path / "l.csv", [("w", "i", 1), ("w", "j", 3)])
        lm = load_labels(p, 3, label_base=1)
        assert sorted(lm.labels.tolist()) == [0, 2]

    def test_three_worker_table(self, three_worker_labels):
        lm = three_worker_labels
        assert (lm.num_workers, lm.num_items, lm.num_labels) == (3, 6, 18)

    def test_first_appearance_interning(self, tmp_path):
        p = write_csv(tmp_path / "l.csv", [("z", "q", 0), ("a", "q", 1), ("z", "b", 0)])
        lm = load_labels(p, 2)
        assert lm.worker_ids == ("z", "a")
        assert lm.item_ids == ("q", "b")

    @pytest.mark.parametrize("header", ["worker,item,label\n", ""])
    def test_byte_order_mark_is_not_data(self, tmp_path, header):
        p = tmp_path / "l.csv"
        p.write_bytes(b"\xef\xbb\xbf" + f"{header}w,i,1\nv,i,0\n".encode())
        lm = load_labels(p, 2)
        assert (lm.worker_ids, lm.item_ids, lm.labels.tolist()) == (("w", "v"), ("i",), [1, 0])

    def test_round_trip_is_byte_identical(self, tmp_path):
        p = write_csv(tmp_path / "l.csv", [("w1", "i1", 0), ("w2", "i1", 1), ("w1", "i2", 1)],
                      header="worker,item,label")
        lm = load_labels(p, 2)
        out = tmp_path / "out.csv"
        write_labels(lm, out)
        assert out.read_bytes() == p.read_bytes()


class TestFromTriples:
    @pytest.mark.parametrize("classes", [1, 0, -3])
    def test_fewer_than_two_classes_rejected(self, classes):
        for triples in ([("w", "i", 0)], []):
            with pytest.raises(ValueError, match=f"^need at least 2 classes, got {classes}$"):
                from_triples(triples, classes)

    @pytest.mark.parametrize("bad", ["a,b", " a", "a ", "a\nb", "a\r", "\tz"])
    def test_rejects_ids_a_labels_file_cannot_hold(self, bad):
        with pytest.raises(LabelFileError, match=r"^line 2: id .* in triple \(") as err:
            from_triples([("w", "i", 0), ("w", bad, 1)], 2)
        assert repr(bad) in str(err.value)
        with pytest.raises(LabelFileError, match="^line 1: "):
            from_triples([(bad, "i", 0)], 2)

    @pytest.mark.parametrize("label", [None, [1], 1.5, 2.9, float("inf"), np.float64(0.5)])
    def test_label_that_is_not_an_integer_is_rejected(self, label):
        # read as the text of its repr, as a labels file would hold it
        message = f"line 2: label {repr(label)!r} is not an integer"
        with pytest.raises(LabelFileError, match=f"^{re.escape(message)}$") as err:
            from_triples([("w", "i", 0), ("w", "j", label), ("w", "k", 1)], 3)
        assert err.value.line_no == 2

    def test_integral_labels_load(self):
        triples = [("a", "i", np.int64(2)), ("b", "i", 2.0), ("c", "i", "1"), ("d", "i", True),
                   ("e", "i", np.float32(0.0)), ("f", "i", np.uint8(1)), ("g", "i", " 0")]
        assert from_triples(triples, 3).labels.tolist() == [2, 2, 1, 1, 0, 1, 0]

    @pytest.mark.parametrize("triples, message", [
        ([("w", "i", 9), ("w", "j", None)], "line 1: label 9 out of range"),
        ([("w", "i", None), ("w", "j", 9)], "line 1: label 'None' is not an integer"),
        ([("w", "i", 0), ("w", "i", 1.5)], "line 2: label '1.5' is not an integer"),
        ([("w", "i", 0), ("w", "i", 1), ("v", "j", [0])], "line 2: duplicate observation"),
        ([("w", "i", [0]), ("w", "a,b", 0)], "line 1: label '\\[0\\]' is not an integer"),
        ([("", "i", None)], "line 1: empty worker or item id"),
    ])
    def test_first_fault_in_triple_order_is_reported(self, triples, message):
        with pytest.raises(LabelFileError, match=f"^{message}"):
            from_triples(triples, 3)

    def test_write_labels_round_trip(self, tmp_path):
        triples = [("a b", "i;1", 0), ("c", "i;1", 1), ("\u00e9", "j k", 1), (7, 8, 0)]
        lm = from_triples(triples, 2)
        path = tmp_path / "l.csv"
        write_labels(lm, path)
        back = load_labels(path, 2)
        assert (back.worker_ids, back.item_ids) == (lm.worker_ids, lm.item_ids)
        for name in ("workers", "items", "labels"):
            assert np.array_equal(getattr(back, name), getattr(lm, name))


class TestSummarize:
    def test_counts_and_means(self, three_worker_labels):
        s = summarize(three_worker_labels)
        assert s.num_labels == 18
        assert s.labels_per_worker == pytest.approx(6.0)
        assert s.labels_per_item == pytest.approx(3.0)
        assert s.avg_worker_error is None

    def test_large_sparse_shape_means(self):
        # 15567 labels over 177 workers and 2665 items
        m, n, L = 177, 2665, 15567
        triples = [(f"w{l % m}", f"i{l % n}", 0) for l in range(L)]
        lm = from_triples(triples, 5,
                          worker_ids=[f"w{i}" for i in range(m)],
                          item_ids=[f"i{j}" for j in range(n)])
        s = summarize(lm)
        assert s.labels_per_item == pytest.approx(5.841, abs=1e-3)
        assert s.labels_per_worker == pytest.approx(87.95, abs=0.01)

    def test_empty_gold_gives_no_error_rate(self, three_worker_labels):
        s = summarize(three_worker_labels, GoldLabels({}))
        assert s.avg_worker_error is None

    def test_worker_error_vs_gold(self, three_worker_labels, three_worker_gold):
        s = summarize(three_worker_labels, three_worker_gold)
        # 7 of the 18 labels disagree with the planted truth
        assert s.avg_worker_error == pytest.approx(7 / 18)


class TestPosteriorFile:
    def test_round_trip(self, tmp_path, three_worker_labels):
        q = np.full((6, 3), 1 / 3)
        pred = np.zeros(6, dtype=np.int64)
        path = tmp_path / "post.tsv"
        write_posterior(path, three_worker_labels, q, pred)
        ids, preds, post = read_posterior(path)
        assert list(ids) == list(three_worker_labels.item_ids)
        np.testing.assert_allclose(post, q, atol=1e-6)

    def test_byte_order_mark_is_not_data(self, tmp_path):
        p = tmp_path / "post.tsv"
        p.write_bytes(b"\xef\xbb\xbfitem\tpredicted\tp0\tp1\na\t0\t0.9\t0.1\n")
        ids, preds, post = read_posterior(p)
        assert (ids, preds.tolist(), post.tolist()) == (["a"], [0], [[0.9, 0.1]])

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "x.tsv"
        p.write_text("foo\tbar\n")
        with pytest.raises(LabelFileError, match="header"):
            read_posterior(p)

    @pytest.mark.parametrize("row, message", [
        ("b\tx\t0.5\t0.5", "predicted label 'x' is not an integer"),
        ("b\t0\t0.5\tnan?", "probability is not a number"),
    ])
    def test_bad_value_names_the_line(self, tmp_path, row, message):
        p = tmp_path / "x.tsv"
        p.write_text(f"item\tpredicted\tp0\tp1\na\t0\t0.5\t0.5\n{row}\n")
        with pytest.raises(LabelFileError, match=f"^line 3: {message}") as err:
            read_posterior(p)
        assert err.value.line_no == 3


class TestGold:
    def test_load_and_unknown_item(self, tmp_path, three_worker_labels):
        p = write_csv(tmp_path / "g.csv", [("i1", 0), ("i3", 1)])
        gold = load_gold(p, three_worker_labels.item_ids, 3)
        assert gold.by_item == {0: 0, 2: 1}
        bad = write_csv(tmp_path / "b.csv", [("nope", 0)])
        with pytest.raises(LabelFileError, match="unknown item"):
            load_gold(bad, three_worker_labels.item_ids, 3)

    def test_byte_order_mark_is_not_data(self, tmp_path, three_worker_labels):
        p = tmp_path / "g.csv"
        p.write_bytes(b"\xef\xbb\xbfitem,label\ni3,2\ni1,0\n")
        assert load_gold(p, three_worker_labels.item_ids, 3).by_item == {2: 2, 0: 0}

    def test_second_gold_label_for_an_item_rejected(self, tmp_path, three_worker_labels):
        p = write_csv(tmp_path / "g.csv", [("i1", 0), ("i3", 1), ("i1", 1)])
        with pytest.raises(LabelFileError,
                           match="^line 3: second gold label for item 'i1'$") as err:
            load_gold(p, three_worker_labels.item_ids, 3)
        assert err.value.line_no == 3


# Row-at-a-time reference readers: the rules of the chunked readers, one line
# at a time. The chunked readers must give the same arrays and ids, or raise
# the same message on the same line.

def _reference_rows(path, expected_fields):
    """Yield (line_no, stripped fields) per non-blank line, skipping a header."""
    with open(path, encoding="utf-8") as fh:
        for n, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            parts = line.split(",")
            if n == 1 and [p.strip().lower() for p in parts] == expected_fields:
                continue
            if len(parts) != len(expected_fields):
                raise LabelFileError(
                    f"expected {len(expected_fields)} comma-separated fields, got {len(parts)}", n)
            yield n, [p.strip() for p in parts]


def _reference_intern(rows, num_classes, label_base, worker_ids=None, item_ids=None):
    """(workers, items, labels, worker_ids, item_ids) of validated rows."""
    w_map = {wid: n for n, wid in enumerate(dict.fromkeys(map(str, worker_ids or ())))}
    i_map = {iid: n for n, iid in enumerate(dict.fromkeys(map(str, item_ids or ())))}
    ws, its, ls, lines = [], [], [], []
    top = num_classes - 1 + label_base

    def check_duplicates():
        seen = set()
        for w, i, n in zip(ws, its, lines):
            if (w, i) in seen:
                raise LabelFileError(f"duplicate observation for worker {tuple(w_map)[w]!r}, "
                                     f"item {tuple(i_map)[i]!r}", n)
            seen.add((w, i))

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
        check_duplicates()
        raise
    check_duplicates()
    return ws, its, ls, tuple(w_map), tuple(i_map)


def _reference_from_triples(triples, num_classes, worker_ids=None, item_ids=None):
    def rows():
        for n, (wid, iid, lab) in enumerate(triples, start=1):
            wid, iid = str(wid), str(iid)
            for x in (wid, iid):
                if x != x.strip() or any(ch in x for ch in ",\r\n"):
                    raise LabelFileError(
                        f"id {x!r} in triple {(wid, iid, lab)!r} has a comma, a line "
                        "break or surrounding whitespace, which a labels file cannot hold", n)
            yield n, (wid, iid, lab)

    return _reference_intern(rows(), num_classes, 0, worker_ids, item_ids)


def _reference_gold(path, item_ids, num_classes, label_base=0):
    by_item = {}
    item_index = {iid: i for i, iid in enumerate(item_ids)}
    for n, (iid, lab) in _reference_rows(path, ["item", "label"]):
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
    return by_item


def _reference_posterior(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if tuple(header[:2]) != ("item", "predicted"):
            raise LabelFileError("not a posterior file: bad header", 1)
        K = len(header) - 2
        ids, preds, probs = [], [], []
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
    return ids, preds, probs


def _outcome(fn, *args):
    """fn's result, or the type, message and line of the error it raised."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # compared, not handled
        return "error", (type(exc), str(exc), getattr(exc, "line_no", None))


LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])
BLANKS = st.sampled_from(["", " ", "\t", "  \t "])
# repeated entries weight the draw toward the ids and labels that collide
IDS = st.sampled_from(["w1", "w1", "w2", "w2", "i1", " w1", "w2 ", "", "é", "a b"])
LABELS = st.sampled_from(["0", "1"] * 3 + ["2", "+1", " 1", "01", "1_0", "x", "-1", "9", "", "1.0"])


def _mostly(row, odd):
    """A row, or one time in eight an odd row or a blank line."""
    return st.tuples(st.integers(0, 7), row, odd, BLANKS).map(
        lambda t: t[1] if t[0] < 6 else t[2] if t[0] == 6 else t[3])


def _rows_of(fields, header):
    """Rows of a CSV file; odd rows are ragged or repeat the header below line 1."""
    return _mostly(fields.map(",".join), st.one_of(
        st.lists(IDS, min_size=1, max_size=4).map(",".join), st.just(header)))


def _join_lines(lines, ends, trailing):
    """Lines joined with the given line ends in turn, with or without a trailing one."""
    out = []
    for k, line in enumerate(lines):
        out.append(line)
        if k < len(lines) - 1 or trailing:
            out.append(ends[k % len(ends)] if ends else "\n")
    return "".join(out)


def _file_text(first_lines, rows):
    return st.tuples(first_lines, st.lists(rows, max_size=25), st.lists(LINE_ENDS),
                     st.booleans()).map(lambda t: _join_lines([*t[0], *t[1]], t[2], t[3]))


# the header, when present, is line 1
LABEL_FILES = _file_text(st.sampled_from([[], ["worker,item,label"], [" Worker , ITEM,label"]]),
                         _rows_of(st.tuples(IDS, IDS, LABELS), "worker,item,label"))
GOLD_FILES = _file_text(st.sampled_from([[], ["item,label"], ["ITEM , label"]]),
                        _rows_of(st.tuples(IDS, LABELS), "item,label"))
PROBS = st.sampled_from(["0.5", "0.25", " 1", "1e-3", "nan", "inf", "x", "", "0x1"])
POSTERIOR_ROWS = _mostly(st.tuples(IDS, LABELS, PROBS, PROBS).map("\t".join), st.one_of(
    st.lists(PROBS, max_size=5).map("\t".join), st.just("item\tpredicted\tp0\tp1")))
POSTERIOR_FILES = _file_text(
    st.sampled_from([["item\tpredicted\tp0\tp1"]] * 3 + [["item\tpredicted"], ["item\tpred"]]),
    POSTERIOR_ROWS)
CHUNKS = st.sampled_from([7, 64, data._CHUNK_CHARS])


def _write_text(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "generated.txt"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


class TestReferenceEquivalence:
    @given(LABEL_FILES, st.sampled_from([(2, 0), (3, 1)]), CHUNKS)
    @settings(max_examples=300, deadline=None)
    def test_load_labels(self, tmp_path_factory, text, classes_base, chunk):
        path = _write_text(tmp_path_factory, text)
        expected = _outcome(_reference_intern,
                            _reference_rows(path, ["worker", "item", "label"]), *classes_base)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "_CHUNK_CHARS", chunk)
            got = _outcome(load_labels, path, *classes_base)
        if got[0] == "ok":
            lm = got[1]
            got = "ok", (lm.workers.tolist(), lm.items.tolist(), lm.labels.tolist(),
                         lm.worker_ids, lm.item_ids)
        assert got == expected

    @given(GOLD_FILES, st.sampled_from([(2, 0), (3, 1)]), CHUNKS)
    @settings(max_examples=200, deadline=None)
    def test_load_gold(self, tmp_path_factory, text, classes_base, chunk):
        path = _write_text(tmp_path_factory, text)
        item_ids = ["i1", "w1", "w2", " w1", "é", "a b"]
        expected = _outcome(_reference_gold, path, item_ids, *classes_base)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "_CHUNK_CHARS", chunk)
            got = _outcome(load_gold, path, item_ids, *classes_base)
        if got[0] == "ok":
            got = "ok", got[1].by_item
            assert list(got[1].items()) == list(expected[1].items())
        assert got == expected

    @given(POSTERIOR_FILES, CHUNKS)
    @settings(max_examples=200, deadline=None)
    def test_read_posterior(self, tmp_path_factory, text, chunk):
        path = _write_text(tmp_path_factory, text)
        expected = _outcome(_reference_posterior, path)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "_CHUNK_CHARS", chunk)
            got = _outcome(read_posterior, path)
        if got[0] == "ok":
            ids, preds, post = got[1]
            assert preds.dtype == np.int64 and post.shape[0] == len(ids)
            # nan != nan, so compare the probabilities by their text
            got = "ok", (ids, preds.tolist(), [repr(p) for p in post.ravel().tolist()])
            expected = "ok", (expected[1][0], expected[1][1], [repr(p) for p in expected[1][2]])
        assert got == expected

    @given(st.lists(st.tuples(IDS, IDS, st.sampled_from([0, 1, 2, -1, "1", "x", 1.0, True])),
                    max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_from_triples(self, triples):
        expected = _outcome(_reference_from_triples, triples, 2, ["w0"], ["i0"])
        got = _outcome(from_triples, triples, 2, ["w0"], ["i0"])
        if got[0] == "ok":
            lm = got[1]
            got = "ok", (lm.workers.tolist(), lm.items.tolist(), lm.labels.tolist(),
                         lm.worker_ids, lm.item_ids)
        assert got == expected


def test_chunked_load_peak_memory_is_bounded(tmp_path):
    # 200k lines over 2000 workers and 40k items, five labels per item
    path = tmp_path / "big.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("worker,item,label\n")
        fh.write("".join(f"w{(j * 7 + r * 401) % 2000},i{j},{(j + r) % 3}\n"
                         for j in range(40000) for r in range(5)))
    tracemalloc.start()
    try:
        lm = load_labels(path, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lm.num_labels == 200000
    assert peak <= 30e6, f"peak {peak / 1e6:.1f} MB"
