import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmce.data import GoldLabels
from mmce.evaluation import (
    BIN_EDGES,
    CalibrationBin,
    calibration_bins,
    error_rate,
    evaluate,
    mean_square_error,
)


class TestPointMetrics:
    def test_error_rate_one_third(self):
        pred = np.array([0, 1, 2])
        gold = GoldLabels({0: 0, 1: 1, 2: 0})
        assert error_rate(pred, gold) == pytest.approx(1 / 3)

    def test_error_rate_ignores_items_without_gold(self):
        pred = np.array([0, 1, 1, 1])
        gold = GoldLabels({0: 0, 2: 1})
        assert error_rate(pred, gold) == 0.0

    def test_mse_squares_label_gaps(self):
        pred = np.array([2, 0])
        gold = GoldLabels({0: 0, 1: 0})
        assert mean_square_error(pred, gold) == pytest.approx(2.0)

    def test_no_overlap_rejected(self):
        with pytest.raises(ValueError):
            error_rate(np.array([0]), GoldLabels({5: 1}))

    @pytest.mark.parametrize("outside", [{-1: 1}, {-2: 1}, {-1: 0, 5: 1}])
    def test_gold_keys_outside_the_predictions_are_not_scored(self, outside):
        # a negative key is no item, not an index from the end
        pred = np.array([0, 0])
        with pytest.raises(ValueError, match="^no gold items have predictions$"):
            evaluate(pred, GoldLabels(outside))
        report = evaluate(pred, GoldLabels({0: 0, **outside}), ordinal=True)
        assert report == evaluate(pred, GoldLabels({0: 0}), ordinal=True)
        assert (report.n_scored, report.error_rate) == (1, 0.0)


class TestCalibrationBins:
    def test_boundary_placement(self):
        # exactly 0.5 belongs to the first bin, exactly 0.9 to (0.8, 0.9]
        post = np.array([[0.5, 0.5], [0.9, 0.1]])
        gold = GoldLabels({0: 0, 1: 0})
        bins = calibration_bins(post, gold)
        assert bins[0].count == 1 and bins[0].upper == 0.5
        assert bins[4].count == 1 and (bins[4].lower, bins[4].upper) == (0.8, 0.9)
        assert bins[5].count == 0 and bins[5].error_rate is None

    def test_counts_sum_to_scored_items(self):
        rng = np.random.default_rng(0)
        post = rng.dirichlet(np.ones(3), size=50)
        gold = GoldLabels({i: int(rng.integers(3)) for i in range(50)})
        bins = calibration_bins(post, gold)
        assert sum(b.count for b in bins) == 50

    def test_weighted_bin_errors_recover_overall_rate(self):
        rng = np.random.default_rng(1)
        post = rng.dirichlet(np.ones(3), size=200)
        gold = GoldLabels({i: int(rng.integers(3)) for i in range(200)})
        pred = np.argmax(post, axis=1)
        bins = calibration_bins(post, gold)
        weighted = sum(b.count * b.error_rate for b in bins if b.count) / 200
        assert weighted == pytest.approx(error_rate(pred, gold))

    def test_explicit_predictions_override_argmax(self):
        post = np.array([[0.2, 0.8]])
        gold = GoldLabels({0: 0})
        bins = calibration_bins(post, gold, predictions=np.array([0]))
        scored = [b for b in bins if b.count]
        assert scored[0].error_rate == 0.0

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = 30
        post = rng.dirichlet(np.ones(3), size=n)
        truth = rng.integers(3, size=n)
        gold = GoldLabels({i: int(truth[i]) for i in range(n)})
        base = calibration_bins(post, gold)
        perm = rng.permutation(n)
        permuted = calibration_bins(post[perm],
                                    GoldLabels({i: int(truth[perm[i]]) for i in range(n)}))
        for a, b in zip(base, permuted):
            assert a.count == b.count
            if a.count:
                assert a.error_rate == pytest.approx(b.error_rate)


def mask_calibration_bins(posterior, gold, predictions):
    """The calibration bins as `evaluate` built them before its one-pass
    form: a row max, then one boolean mask and two means per bin."""
    items = np.array(list(gold.by_item), dtype=np.int64)
    truth = np.array(list(gold.by_item.values()), dtype=np.int64)
    keep = items < len(predictions)
    items, truth = items[keep], truth[keep]
    preds = predictions[items]
    max_prob = np.max(posterior[items], axis=1)
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


def assert_same_bins(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.lower, g.upper, g.count) == (w.lower, w.upper, w.count)
        for a, b in ((g.error_rate, w.error_rate), (g.mse, w.mse)):
            assert type(a) is type(b) and (a is None or a.hex() == b.hex())


class TestOnePassBins:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("K", [2, 3, 5])
    def test_equal_to_masked_means_on_random_posteriors(self, seed, K):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        post = rng.dirichlet(np.full(K, rng.choice([0.2, 1.0, 5.0])), size=n)
        pred = rng.integers(K, size=n)
        gold = GoldLabels({int(i): int(rng.integers(K))
                           for i in rng.choice(n + 5, size=int(rng.integers(1, n + 1)),
                                               replace=False)})
        if not (np.array(list(gold.by_item)) < n).any():
            gold = GoldLabels({0: 0})
        got = evaluate(pred, gold, ordinal=True, posterior=post).calibration
        assert_same_bins(got, mask_calibration_bins(post, gold, pred))

    def test_equal_at_the_edges_and_with_empty_bins(self):
        # edges exactly, neighbours one ulp away, and no row in (0.6, 0.8]
        tops = [0.5, 0.9, 1.0, np.nextafter(0.5, 1), np.nextafter(0.9, 0), 0.55, 0.6,
                0.85, 5e-324, np.nextafter(1.0, 0)]
        post = np.array([[0.0, t] for t in tops])
        pred = np.arange(len(tops)) % 2
        gold = GoldLabels({i: (i // 3) % 2 for i in range(len(tops))})
        got = evaluate(pred, gold, ordinal=True, posterior=post).calibration
        assert_same_bins(got, mask_calibration_bins(post, gold, pred))
        assert [b.count for b in got] == [2, 3, 0, 0, 3, 2]

    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_equal_at_the_edges_in_a_narrower_type(self, dtype):
        # each edge rounded to the type and its neighbours there: float32(0.6)
        # lies above 0.6, and a row is compared to an edge in the row's type
        edges = np.array([0.5, 0.6, 0.7, 0.8, 0.9, 1.0], dtype=dtype)
        tops = np.concatenate([np.nextafter(edges, 0), edges, np.nextafter(edges[:-1], 1)])
        post = np.stack([np.zeros_like(tops), tops], axis=1)
        pred = np.arange(len(tops)) % 2
        gold = GoldLabels({i: (i // 4) % 2 for i in range(len(tops))})
        got = evaluate(pred, gold, ordinal=True, posterior=post).calibration
        assert_same_bins(got, mask_calibration_bins(post, gold, pred))

    @pytest.mark.parametrize("row", [
        [0.0, 0.0], [np.nan, 0.5], [np.nan, np.nan], [1.5, -0.5], [-0.0, -1.0],
    ])
    def test_row_outside_every_bin_is_refused(self, row):
        post = np.array([[0.8, 0.2], [0.3, 0.7], row, row])
        gold = GoldLabels({3: 0, 0: 0, 2: 1, 1: 1})
        with pytest.raises(ValueError, match=r"^posterior row 2: largest probability "
                                             r"\S+ is not in \(0, 1\]$"):
            evaluate(np.array([0, 1, 0, 0]), gold, posterior=post)
        # without a posterior, or with the row unscored, nothing is binned or refused
        assert evaluate(np.array([0, 1, 0, 0]), gold).n_scored == 4
        bins = calibration_bins(post, GoldLabels({0: 0, 1: 1}))
        assert sum(b.count for b in bins) == 2

    def test_posterior_without_columns_is_refused(self):
        with pytest.raises(ValueError, match=r"^posterior row 0: largest probability -inf "):
            evaluate(np.array([0, 0]), GoldLabels({1: 0, 0: 0}), posterior=np.zeros((2, 0)))


class TestEvaluate:
    def test_report_fields(self):
        post = np.array([[0.9, 0.1], [0.4, 0.6], [0.7, 0.3]])
        pred = np.argmax(post, axis=1)
        gold = GoldLabels({0: 0, 1: 0, 2: 0})
        report = evaluate(pred, gold, ordinal=True, posterior=post)
        assert report.n_scored == 3
        assert report.error_rate == pytest.approx(1 / 3)
        assert report.mse == pytest.approx(1 / 3)
        assert sum(b.count for b in report.calibration) == 3

    def test_lines_and_csv(self, tmp_path):
        post = np.array([[0.9, 0.1]])
        gold = GoldLabels({0: 0})
        report = evaluate(np.array([0]), gold, posterior=post)
        text = "\n".join(report.lines())
        assert "error rate" in text and "(0.8, 0.9]" in text
        path = tmp_path / "eval.csv"
        report.write_csv(path)
        assert path.read_text().startswith("metric,value\n")
