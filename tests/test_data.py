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
    write_posterior,
)

from conftest import write_csv


def write_labels_file(lm, path, label_base=0):
    """Write the labels file of `lm`, one `worker,item,label` row per observation."""
    rows = zip(np.asarray(lm.worker_ids, dtype=object)[lm.workers],
               np.asarray(lm.item_ids, dtype=object)[lm.items],
               (lm.labels + label_base).tolist())
    return write_csv(path, rows, header="worker,item,label")


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
        # on one line: an empty id, then the label, then a repeated pair
        ("w1,i1,9\n", "line 3: label 9 out of range"),
        ("w1,i1,x\nbroken\n", "line 3: label 'x' is not an integer"),
        (",i1,x\n", "line 3: empty worker or item id"),
    ])
    def test_first_fault_in_file_order_is_reported(self, tmp_path, rows, message):
        p = tmp_path / "l.csv"
        p.write_text(f"worker,item,label\nw1,i1,0\n{rows}")
        with pytest.raises(LabelFileError, match=f"^{message}"):
            load_labels(p, 2)

    def test_label_base_other_than_zero_or_one_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="^label_base must be 0 or 1$"):
            load_labels(tmp_path / "missing.csv", 2, label_base=2)

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

    def test_long_ids_and_trailing_nuls_stay_distinct(self, tmp_path):
        # ids longer than 7 bytes (keyed by their bytes): lengths equal modulo
        # 256, ids that differ only by NULs, and non-ASCII ids after others
        long = "a" * 300
        ids = ["x" * 254, "x" * 255, "x" * 256, long, long + "\x00", long + "\x00" * 256,
               "b", "b\x00", "b" + "\x00" * 256, "é" * 200, "é" * 199 + "e\x00"]
        p = tmp_path / "l.csv"
        p.write_text("".join(f"{w},{w},1\n" for w in ids) + f"{long},{long},0\n",
                     encoding="utf-8")
        with pytest.raises(LabelFileError, match=f"^line {len(ids) + 1}: duplicate"):
            load_labels(p, 2)
        p.write_text("".join(f"{w},{w},1\n" for w in ids), encoding="utf-8")
        lm = load_labels(p, 2)
        assert lm.worker_ids == lm.item_ids == tuple(ids)
        assert lm.workers.tolist() == lm.items.tolist() == list(range(len(ids)))
        g = tmp_path / "g.csv"
        g.write_text(f"{long}\x00,0\n{ids[1]},1\n", encoding="utf-8")
        assert load_gold(g, lm.item_ids, 2).by_item == {4: 0, 1: 1}

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
        write_labels_file(lm, out)
        assert out.read_bytes() == p.read_bytes()

    def test_one_based_round_trip_is_byte_identical(self, tmp_path):
        p = write_csv(tmp_path / "l.csv", [("w1", "i1", 1), ("w2", "i1", 3), ("w1", "i2", 2)],
                      header="worker,item,label")
        lm = load_labels(p, 3, label_base=1)
        assert lm.labels.tolist() == [0, 2, 1]
        out = tmp_path / "out.csv"
        write_labels_file(lm, out, label_base=1)
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
        write_labels_file(lm, path)
        back = load_labels(path, 2)
        assert (back.worker_ids, back.item_ids) == (lm.worker_ids, lm.item_ids)
        for name in ("workers", "items", "labels"):
            assert np.array_equal(getattr(back, name), getattr(lm, name))


class TestSubset:
    @pytest.mark.parametrize("mask", [np.array([True, False, True, True, False]),
                                      np.array([4, 0, 2])])
    def test_columns_are_new_read_only_arrays(self, mask):
        lm = from_triples([("a", "i", 0), ("b", "i", 1), ("a", "j", 1), ("c", "k", 0),
                           ("b", "k", 1)], 2)
        sub = lm.subset(mask)
        assert (sub.worker_ids, sub.item_ids) == (lm.worker_ids, lm.item_ids)
        for name in ("workers", "items", "labels"):
            got, parent = getattr(sub, name), getattr(lm, name)
            assert np.array_equal(got, parent[mask])
            assert not got.flags.writeable
            assert not np.shares_memory(got, parent)


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

    @pytest.mark.parametrize("outside", [{5: 0}, {-1: 1}, {-2: 0, 5: 1}])
    def test_gold_keys_outside_the_items_are_not_scored(self, outside):
        # as `evaluate` scores gold: a negative key is no item, not an index
        # from the end, and a key past the items is none either
        lm = from_triples([("a", "i", 0), ("b", "j", 1), ("a", "j", 1)], 2)
        assert summarize(lm, GoldLabels(outside)).avg_worker_error is None
        assert summarize(lm, GoldLabels({0: 1, **outside})).avg_worker_error == 1.0


class TestPosteriorFile:
    def test_round_trip(self, tmp_path, three_worker_labels):
        q = np.full((6, 3), 1 / 3)
        pred = np.zeros(6, dtype=np.int64)
        path = tmp_path / "post.tsv"
        write_posterior(path, three_worker_labels, q, pred)
        ids, preds, post = read_posterior(path)
        assert list(ids) == list(three_worker_labels.item_ids)
        np.testing.assert_allclose(post, q, atol=1e-6)

    def test_item_id_with_a_tab_is_rejected_before_writing(self, tmp_path):
        lm = from_triples([("w", "a", 0), ("w", "b\tc", 1), ("w", "d\te", 1)], 2)
        path = tmp_path / "post.tsv"
        with pytest.raises(ValueError, match=r"item id 'b\\tc' has a tab"):
            write_posterior(path, lm, np.full((3, 2), 0.5), np.zeros(3, dtype=np.int64))
        assert not path.exists()

    @pytest.mark.parametrize("shape, rows", [((2, 2), 3), ((3, 2), 3), ((2, 3), 3),
                                             ((3, 3), 2), ((3, 3), 4)])
    def test_posterior_that_does_not_fit_the_items_is_rejected_before_writing(
            self, tmp_path, shape, rows):
        lm = from_triples([("w", "a", 0), ("w", "b", 1), ("w", "c", 2)], 3)
        path = tmp_path / "post.tsv"
        with pytest.raises(ValueError, match="does not fit 3 items and 3 classes"):
            write_posterior(path, lm, np.full(shape, 0.5), np.zeros(rows, dtype=np.int64))
        assert not path.exists()

    @pytest.mark.parametrize("dtype", [np.float64, np.bool_])
    def test_predicted_labels_that_are_not_integers_are_rejected_before_writing(
            self, tmp_path, dtype):
        # rows like "a\t0.0" or "a\tFalse" would not read back
        lm = from_triples([("w", "a", 0), ("w", "b", 1)], 2)
        path = tmp_path / "post.tsv"
        with pytest.raises(ValueError, match=f"dtype {np.dtype(dtype)} are not integers"):
            write_posterior(path, lm, np.full((2, 2), 0.5), np.zeros(2, dtype=dtype))
        assert not path.exists()

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
        ("b\t\t0.5\t0.5", "predicted label '' is not an integer"),
        ("b\t0\t0.5\t", "probability is not a number"),
        ("b\t99999999999999999999\t0.5\t0.5",
         "predicted label '99999999999999999999' does not fit in 64 bits"),
        ("b\t-9223372036854775809\t0.5\t0.5",
         "predicted label '-9223372036854775809' does not fit in 64 bits"),
    ])
    def test_bad_value_names_the_line(self, tmp_path, row, message):
        p = tmp_path / "x.tsv"
        p.write_text(f"item\tpredicted\tp0\tp1\na\t0\t0.5\t0.5\n{row}\n")
        with pytest.raises(LabelFileError, match=f"^line 3: {message}") as err:
            read_posterior(p)
        assert err.value.line_no == 3

    def test_fields_read_as_int_and_float_read_them(self, tmp_path):
        # fields the reader parses in numpy, and ones near them that it leaves
        # to int and float
        preds = ["0", "7", "01", "000000000000000009", "123456789012345678",
                 "1234567890123456789", "9223372036854775807", "+1", " 1", "1 ", "1_0", "-1",
                 "\u0663"]
        probs = ["0.500000", "0.000000", "1.000000", "9.999999", "0.123456", "0.5000001",
                 "0.1234567", "0.12345", "10.000000", " 0.500000", "0.500000 ", "1e-3",
                 "-0.000000", "\u0660.\u0665"]
        rows = [(pred, prob) for pred in preds for prob in probs]
        p = tmp_path / "p.tsv"
        p.write_text("item\tpredicted\tp0\tp1\n" + "".join(
            f"{k}\t{pred}\t{prob}\t{prob}\n" for k, (pred, prob) in enumerate(rows)),
            encoding="utf-8")
        ids, got_preds, post = read_posterior(p)
        assert ids == [str(k) for k in range(len(rows))]
        assert got_preds.tolist() == [int(pred) for pred, _ in rows]
        assert post.tobytes() == np.array([[float(prob)] * 2 for _, prob in rows]).tobytes()


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

    @pytest.mark.parametrize("rows, message", [
        ("i1,0\ni1,9\n", "line 2: gold label 9 out of range"),
        ("nope,9\n", "line 1: unknown item id 'nope'"),
        ("i1,x\nbroken\n", "line 1: gold label 'x' is not an integer"),
        ("i1,0\ni2,1\ni1,1\nbroken\n", "line 3: second gold label for item 'i1'"),
    ])
    def test_first_fault_in_file_order_is_reported(self, tmp_path, three_worker_labels, rows,
                                                   message):
        p = tmp_path / "g.csv"
        p.write_text(rows)
        with pytest.raises(LabelFileError, match=f"^{message}$"):
            load_gold(p, three_worker_labels.item_ids, 3)

    @pytest.mark.parametrize("classes, base, message", [
        (1, 0, "need at least 2 classes, got 1"),
        (0, 0, "need at least 2 classes, got 0"),
        (2, 2, "label_base must be 0 or 1"),
    ])
    def test_label_settings_are_checked_before_the_file_is_read(self, tmp_path, classes, base,
                                                                message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            load_gold(tmp_path / "missing.csv", ["i1"], classes, base)

    @pytest.mark.parametrize("item_ids, error, message", [
        (["i1", 2, "i3"], TypeError, "descriptor 'isascii' for 'str' objects doesn't apply to "
                                     "a 'int' object"),
        (["i1", b"i2"], TypeError, "descriptor 'isascii' .* to a 'bytes' object"),
        ([None], TypeError, "descriptor 'isascii' .* to a 'NoneType' object"),
        (["ïd", 2], AttributeError, "'int' object has no attribute 'encode'"),
        (["ïd", b"i2"], AttributeError, "'bytes' object has no attribute 'encode'"),
    ])
    def test_item_id_that_is_not_a_str_is_refused(self, tmp_path, item_ids, error, message):
        # ids are tested with str.isascii up to the first non-ASCII one, and
        # then each is encoded: a non-str id fails the first of the two it meets
        p = write_csv(tmp_path / "g.csv", [("i1", 0)])
        with pytest.raises(error, match=f"^{message}$"):
            load_gold(p, item_ids, 3)


@pytest.mark.parametrize("keys", [[], [7], [3, 1, 2], [3, 1, 3, 2, 1, 3], [0, 0],
                                  [2 ** 62, -1, 2 ** 62]]
                         + [np.random.default_rng(n).permutation(n) for n in (2, 300, 2999)]
                         + [np.random.default_rng(n).integers(0, n, n) for n in (2, 300, 2999)])
def test_repeats_are_the_keys_on_earlier_rows(keys):
    got = data._repeats(np.array(keys, dtype=np.int64))
    assert got.dtype == bool and got.tolist() == [k in keys[:l] for l, k in enumerate(keys)]


def counted_chunks(monkeypatch):
    """A list that gains each chunk's buffer read from now on."""
    bufs = []
    read = data._chunks

    def counted(fh, sep):
        for chunk in read(fh, sep):
            bufs.append(chunk[0])
            yield chunk

    monkeypatch.setattr(data, "_chunks", counted)
    return bufs


@pytest.mark.parametrize("reader", ["labels", "gold"])
def test_reading_stops_after_the_chunk_with_the_first_faulting_label(tmp_path, monkeypatch,
                                                                      reader):
    bufs = counted_chunks(monkeypatch)
    ids = [f"i{k:02d}" for k in range(60)]
    if reader == "labels":
        lines = [f"w{k:02d},{iid},0" for k, iid in enumerate(ids)]
    else:
        lines = [f"{iid},1" for iid in ids]

    def load(p):
        return load_labels(p, 2) if reader == "labels" else load_gold(p, ids, 2)

    p = tmp_path / "f.csv"
    p.write_text("\n".join(lines) + "\n")
    monkeypatch.setattr(data, "_CHUNK_CHARS", p.stat().st_size // 3)  # 20 lines a chunk
    load(p)
    assert len(bufs) == 3
    lines[1] = lines[1][:-1] + "7"  # a bad label in the first chunk
    p.write_text("\n".join(lines) + "\n")
    bufs.clear()
    with pytest.raises(LabelFileError, match="^line 2: "):
        load(p)
    assert len(bufs) == 1


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
            if not -2**63 <= preds[-1] < 2**63:
                raise LabelFileError(f"predicted label {parts[1]!r} does not fit in 64 bits", n)
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
# (whitespace that str.strip removes at an edge, ids longer than the 7 bytes a
# key holds, 7-byte ids that differ only in their last byte, and ids that
# differ only by a trailing NUL among them)
ID_TEXTS = ["w1", "w1", "w2", "w2", "i1", " w1", "w2 ", "", "é", "a b", "w1 ", "\x85w1",
            "\x1cw1", "w1\x0b", "worker-000001", "éééé-long", "n\x00", "n\x00\x00", "\x00",
            "\u3000worker-000001", "abcdefg", "abcdefh"]
IDS = st.sampled_from(ID_TEXTS)
# and a long id with a lone surrogate, which triples can hold and a file cannot
TRIPLE_IDS = st.sampled_from(ID_TEXTS + ["\ud800-surrogate-long"])
# id lists for `_Keys.of`: empty ids; ids of 7 bytes (all a key holds), 8 and 100; non-ASCII
# ids; lone surrogates, NULs and tabs; ASCII ids then one non-ASCII id, off the one-encode path
KEY_LISTS = [
    [], [""], ["", "a", "", "a"], ["ascii-only", "then-ß"], ["a\0b", "\0" * 8, "c\td", " e "],
    ["w1", "i12345", "1234567", "12345678", "x" * 100, "12345678", "abcdefg", "abcdefh"],
    ["ünï", "日本語のid", "é" * 4, "ab", "😀" * 2, ""],
    ["a\udc80b", "\ud800", "long-\udfff-id", "plain", "\ud800"],
]
# pre-registered ids, which no rule checks: any text, or ids that triples hold
REGISTERED_IDS = st.lists(st.one_of(TRIPLE_IDS, st.text(max_size=12)), max_size=6)
LABEL_TEXTS = ["0", "1"] * 3 + ["2", "+1", " 1", "01", "1_0", "x", "-1", "9", "", "1.0"]
LABELS = st.sampled_from(LABEL_TEXTS)


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
# the fields of the form d.dddddd (read in numpy) and ones that are nearly so
PROBS = st.sampled_from(["0.5", "0.25", " 1", "1e-3", "nan", "inf", "x", "", "0x1",
                         "0.500000", "1.000000", "9.999999", "0.5000000", "00.50000",
                         ".5000000", "0.50000.", "0,500000", "+0.50000", "0.5e+00",
                         "0.5000001"])
PREDICTED = st.sampled_from(LABEL_TEXTS + ["99999999999999999999"])
POSTERIOR_ROWS = _mostly(st.tuples(IDS, PREDICTED, PROBS, PROBS).map("\t".join), st.one_of(
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
            # every worker and item of a loaded file has a label
            assert set(lm.workers.tolist()) == set(range(lm.num_workers))
            assert set(lm.items.tolist()) == set(range(lm.num_items))
            got = "ok", (lm.workers.tolist(), lm.items.tolist(), lm.labels.tolist(),
                         lm.worker_ids, lm.item_ids)
        assert got == expected

    @given(GOLD_FILES, st.sampled_from([(2, 0), (3, 1)]), CHUNKS)
    @settings(max_examples=200, deadline=None)
    def test_load_gold(self, tmp_path_factory, text, classes_base, chunk):
        path = _write_text(tmp_path_factory, text)
        # "w2" twice: a gold id joins the last of equal item ids
        item_ids = ["i1", "w1", "w2", " w1", "é", "a b", "worker-000001", "éééé-long",
                    "n\x00", "w2", "abcdefg"]
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

    @given(st.lists(st.tuples(TRIPLE_IDS, TRIPLE_IDS,
                              st.sampled_from([0, 1, 2, -1, "1", "x", 1.0, True])),
                    max_size=20), REGISTERED_IDS, REGISTERED_IDS)
    @settings(max_examples=200, deadline=None)
    def test_from_triples(self, triples, worker_ids, item_ids):
        expected = _outcome(_reference_from_triples, triples, 2, worker_ids, item_ids)
        got = _outcome(from_triples, triples, 2, worker_ids, item_ids)
        if got[0] == "ok":
            lm = got[1]
            assert (lm.num_workers, lm.num_items) == (len(lm.worker_ids), len(lm.item_ids))
            got = "ok", (lm.workers.tolist(), lm.items.tolist(), lm.labels.tolist(),
                         lm.worker_ids, lm.item_ids)
        assert got == expected

    @pytest.mark.parametrize("ids", KEY_LISTS)
    def test_keys_are_one_per_id_and_decode_back(self, ids):
        table = data._Keys()
        keys = table.of(ids)
        assert keys.dtype == np.uint64 and len(set(keys.tolist())) == len(set(ids))
        assert table.decode(keys) == ids


def _reference_write_posterior(path, labels, posterior, predicted):
    """The posterior writer as one `%`-format per row."""
    header = "item\tpredicted\t" + "\t".join(f"p{k}" for k in range(labels.num_classes))
    row_format = "%s\t%s" + "\t%.6f" * posterior.shape[1] + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for iid, pred, probs in zip(labels.item_ids, np.asarray(predicted).tolist(),
                                    posterior.tolist()):
            fh.write(row_format % (iid, pred, *probs))


# values at and near %.6f's rounding ties, and those the writer leaves to `%`
ODD_VALUES = st.one_of(
    st.sampled_from([-0.0, float("nan"), float("inf"), -float("inf"), -1e-9, -0.25, 10.0,
                     12.5, 1e300, 5e-324, 2.2e-308, 0.0, 1.0, 0.9999995, 0.0078125,
                     9.9999995, 9.9999996, 9.999999, 4.5e-7, 5e-7, 5.5e-7]),
    st.integers(0, 10**7 - 1).map(lambda j: (j + 0.5) * 1e-6),
    st.floats(0, 10), st.floats())
ODD_PREDICTED = st.sampled_from([-1, -12, 10, 11, 99, 12345678901234567, 2**63 - 1])
POSTERIOR_IDS = st.sampled_from(["a", "i-000123", "", "é", "日本語", "\U0001F600", "x" * 300,
                                 "w1 ", "\x00", "i\x85"])


@given(st.integers(2, 12),
       st.sampled_from([0, 1, 2, data._WRITE_ROWS - 1, data._WRITE_ROWS, data._WRITE_ROWS + 1,
                        2 * data._WRITE_ROWS + 3]),
       st.integers(0, 2**32 - 1),
       st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 11), ODD_VALUES), max_size=12),
       st.lists(st.tuples(st.integers(0, 10**6), ODD_PREDICTED), max_size=3),
       st.lists(st.tuples(st.integers(0, 10**6), POSTERIOR_IDS), max_size=6),
       st.sampled_from([np.float64, np.float32]), st.booleans())
@settings(max_examples=80, deadline=None)
def test_write_posterior_equals_one_format_per_row(tmp_path_factory, K, n, seed, values,
                                                   predictions, odd_ids, dtype, surrogate):
    rng = np.random.default_rng(seed)
    posterior = rng.dirichlet(np.ones(K), size=n) if n else np.zeros((0, K))
    predicted = posterior.argmax(axis=1) if n else np.zeros(0, dtype=np.int64)
    ids = [f"i{j}" for j in range(n)]
    if n:
        for r, c, value in values:
            posterior[r % n, c % K] = value
        for r, value in predictions:
            predicted[r % n] = value
        for r, value in odd_ids:
            ids[r % n] = value
        if surrogate:
            ids[rng.integers(n)] = "a\ud800"
    with np.errstate(over="ignore"):  # float32 cannot hold 1e300
        posterior = posterior.astype(dtype)
    labels = data.LabelMatrix(0, n, K, np.empty(0, np.int64), np.empty(0, np.int64),
                              np.empty(0, np.int64), (), tuple(ids))
    base = tmp_path_factory.getbasetemp()
    expected = _outcome(_reference_write_posterior, base / "ref.tsv", labels, posterior,
                        predicted)
    got = _outcome(write_posterior, base / "out.tsv", labels, posterior, predicted)
    if expected[0] == "error":  # a lone surrogate cannot be encoded
        assert got[0] == "error" and got[1][0] is expected[1][0] is UnicodeEncodeError
    else:
        assert got == expected
        assert (base / "out.tsv").read_bytes() == (base / "ref.tsv").read_bytes()


def _posterior_100k():
    """A 100k-row, 4-class labels matrix (items only) and posterior."""
    posterior = np.random.default_rng(0).dirichlet(np.ones(4), size=100000)
    labels = data.LabelMatrix(0, 100000, 4, np.empty(0, np.int64), np.empty(0, np.int64),
                              np.empty(0, np.int64), (), tuple(f"i{j}" for j in range(100000)))
    return labels, posterior, posterior.argmax(axis=1)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_posterior_write_peak_memory_is_bounded(tmp_path):
    # the bound is the one-format-per-row writer's measured 1.43 MB, rounded up
    labels, posterior, predicted = _posterior_100k()
    _, peak = _traced_peak(write_posterior, tmp_path / "p.tsv", labels, posterior, predicted)
    assert peak <= 1.5e6, f"peak {peak / 1e6:.2f} MB"


def test_blocks_with_a_tie_are_written_by_one_format_per_row(tmp_path):
    # 0.0078125 * 1e6 is a rounding tie, so every block is formatted by `%`
    labels, posterior, predicted = _posterior_100k()
    posterior[::data._WRITE_ROWS, 0] = 0.0078125
    _, peak = _traced_peak(write_posterior, tmp_path / "p.tsv", labels, posterior, predicted)
    _reference_write_posterior(tmp_path / "ref.tsv", labels, posterior, predicted)
    assert (tmp_path / "p.tsv").read_bytes() == (tmp_path / "ref.tsv").read_bytes()
    assert peak <= 1.5e6, f"peak {peak / 1e6:.2f} MB"


def test_posterior_read_peak_memory_is_bounded(tmp_path):
    # the bound is the str-split reader's measured 14.76 MB, rounded up
    labels, posterior, predicted = _posterior_100k()
    write_posterior(tmp_path / "p.tsv", labels, posterior, predicted)
    del labels
    (ids, preds, back), peak = _traced_peak(read_posterior, tmp_path / "p.tsv")
    assert len(ids) == 100000 and np.array_equal(preds, predicted)
    np.testing.assert_allclose(back, posterior, atol=5e-7)
    assert peak <= 14.8e6, f"peak {peak / 1e6:.2f} MB"


def counted_line_reads(monkeypatch):
    """A list that gains each chunk text read by the line rule from now on."""
    texts = []
    read = data._posterior_lines

    def counted(text, *args):
        texts.append(text)
        return read(text, *args)

    monkeypatch.setattr(data, "_posterior_lines", counted)
    return texts


def _written_posterior(path, K, ids):
    posterior = np.random.default_rng(K).dirichlet(np.ones(K), size=len(ids))
    labels = data.LabelMatrix(0, len(ids), K, np.empty(0, np.int64), np.empty(0, np.int64),
                              np.empty(0, np.int64), (), tuple(ids))
    write_posterior(path, labels, posterior, np.arange(len(ids)) % K)


def _assert_read_as_reference(path):
    ids, preds, post = read_posterior(path)
    assert (ids, preds.tolist(), post.ravel().tolist()) == _reference_posterior(path)


@pytest.mark.parametrize("K", [2, 5, 12])  # K = 12 writes 2-digit predicted labels
@pytest.mark.parametrize("id_format", ["i{}", "élève-{}\U0001d4b3", " i{}"])
def test_writer_output_never_needs_the_line_rule(tmp_path, monkeypatch, K, id_format):
    monkeypatch.setattr(data, "_CHUNK_CHARS", 200)  # a few lines per chunk
    texts = counted_line_reads(monkeypatch)
    path = tmp_path / "p.tsv"
    _written_posterior(path, K, [id_format.format(j) for j in range(300)])
    _assert_read_as_reference(path)
    assert texts == []


@pytest.mark.parametrize("id_format", ["i{}", "élève-{}\U0001d4b3", " i{}"])
def test_one_odd_field_sends_only_its_chunk_to_the_line_rule(tmp_path, monkeypatch, id_format):
    monkeypatch.setattr(data, "_CHUNK_CHARS", 200)
    texts = counted_line_reads(monkeypatch)
    path = tmp_path / "p.tsv"
    _written_posterior(path, 5, [id_format.format(j) for j in range(300)])
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[150] = lines[150].rsplit("\t", 1)[0] + "\t1e-3"
    path.write_text("\n".join(lines), encoding="utf-8")
    _assert_read_as_reference(path)
    assert len(texts) == 1 and "\t1e-3\n" in texts[0]


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


def test_shuffled_long_id_load_peak_memory_is_bounded(tmp_path):
    # 200k lines of 12-byte ids (longer than the 7 bytes a key holds) in
    # random order; the bound is the row-at-a-time dict interner's measured
    # 16.9 MB, rounded up
    path = tmp_path / "shuffled.csv"
    order = np.random.default_rng(0).permutation(200000).tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("worker,item,label\n")
        fh.write("".join(f"worker-{(r // 5 * 7 + r % 5 * 401) % 2000:05d},"
                         f"item-{r // 5:07d},{r % 3}\n" for r in order))
    tracemalloc.start()
    try:
        lm = load_labels(path, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (lm.num_labels, lm.num_workers, lm.num_items) == (200000, 2000, 40000)
    assert lm.item_ids[lm.items[0]] == f"item-{order[0] // 5:07d}"
    assert peak <= 17e6, f"peak {peak / 1e6:.1f} MB"


def test_one_long_id_load_peak_memory_is_bounded(tmp_path):
    # a 4 KB item id on the middle line of 200k short ones must not widen the
    # other rows' keys; the bound is the row-at-a-time dict interner's
    # measured 16.6 MB on this input, rounded up
    path = tmp_path / "one_long.csv"
    lines = [f"w{(j * 7 + r * 401) % 2000},i{j},{(j + r) % 3}\n"
             for j in range(40000) for r in range(5)]
    lines[100000] = "w1,item-" + "x" * 4091 + ",0\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("worker,item,label\n")
        fh.write("".join(lines))
    del lines
    tracemalloc.start()
    try:
        lm = load_labels(path, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (lm.num_labels, lm.num_items) == (200000, 40001)
    assert lm.item_ids[lm.items[100000]] == "item-" + "x" * 4091
    assert peak <= 17e6, f"peak {peak / 1e6:.1f} MB"
