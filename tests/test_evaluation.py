import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmce.data import GoldLabels
from mmce.evaluation import (
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
