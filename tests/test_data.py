import numpy as np
import pytest

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

    def test_round_trip_is_byte_identical(self, tmp_path):
        p = write_csv(tmp_path / "l.csv", [("w1", "i1", 0), ("w2", "i1", 1), ("w1", "i2", 1)],
                      header="worker,item,label")
        lm = load_labels(p, 2)
        out = tmp_path / "out.csv"
        write_labels(lm, out)
        assert out.read_bytes() == p.read_bytes()


class TestFromTriples:
    @pytest.mark.parametrize("bad", ["a,b", " a", "a ", "a\nb", "a\r", "\tz"])
    def test_rejects_ids_a_labels_file_cannot_hold(self, bad):
        with pytest.raises(LabelFileError, match=r"^line 2: id .* in triple \(") as err:
            from_triples([("w", "i", 0), ("w", bad, 1)], 2)
        assert repr(bad) in str(err.value)
        with pytest.raises(LabelFileError, match="^line 1: "):
            from_triples([(bad, "i", 0)], 2)

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

    def test_second_gold_label_for_an_item_rejected(self, tmp_path, three_worker_labels):
        p = write_csv(tmp_path / "g.csv", [("i1", 0), ("i3", 1), ("i1", 1)])
        with pytest.raises(LabelFileError,
                           match="^line 3: second gold label for item 'i1'$") as err:
            load_gold(p, three_worker_labels.item_ids, 3)
        assert err.value.line_no == 3
