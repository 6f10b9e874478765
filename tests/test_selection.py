import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmce import synthetic
from mmce.data import GoldLabels, from_triples
from mmce.evaluation import error_rate
from mmce.selection import (
    CVConfig,
    CVReport,
    cross_validate,
    heldout_loglik,
    partition_folds,
    resolve_hyperparams,
    validation_select,
)
from mmce.solver import HyperParams, fit


def grid_instance(num_classes=5, m=177, n=2665, labels=15567):
    triples = [(f"w{l % m}", f"i{l % n}", l % num_classes) for l in range(labels)]
    return from_triples(triples, num_classes,
                        worker_ids=[f"w{i}" for i in range(m)],
                        item_ids=[f"i{j}" for j in range(n)])


class TestResolveHyperparams:
    def test_alpha_scales_with_squared_classes(self):
        lm = from_triples([("w", "i", 0)], 7)
        alpha, beta = resolve_hyperparams(1.0, lm)
        assert alpha == pytest.approx(49.0)

    def test_web_shaped_dataset(self):
        lm = grid_instance()
        alpha, beta = resolve_hyperparams(1.0, lm)
        assert alpha == pytest.approx(25.0)
        # beta = (labels per worker / labels per item) * alpha = (n / m) * alpha
        assert beta == pytest.approx(25.0 * 2665 / 177)
        assert beta == pytest.approx(376.4, abs=0.1)

    def test_square_dataset_is_symmetric(self):
        # as many workers as items: the two penalties coincide
        lm = from_triples([(f"w{i}", f"i{i}", 0) for i in range(4)], 2)
        alpha, beta = resolve_hyperparams(0.25, lm)
        assert alpha == pytest.approx(1.0)
        assert beta == pytest.approx(1.0)

    def test_homogeneous_in_gamma(self):
        lm = grid_instance(num_classes=3, m=9, n=40, labels=200)
        a1, b1 = resolve_hyperparams(1.3, lm)
        a2, b2 = resolve_hyperparams(2.6, lm)
        assert a2 == pytest.approx(2 * a1) and b2 == pytest.approx(2 * b1)

    def test_invalid_inputs(self):
        lm = from_triples([("w", "i", 0)], 2)
        with pytest.raises(ValueError):
            resolve_hyperparams(0.0, lm)
        with pytest.raises(ValueError):
            resolve_hyperparams(-1.0, lm)
        for gamma in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="positive and finite"):
                resolve_hyperparams(gamma, lm)

    def test_overflowing_alpha_or_beta_names_gamma(self):
        lm = grid_instance(num_classes=3, m=9, n=40, labels=200)
        alpha, beta = resolve_hyperparams(1e306, lm)  # beta = (40 / 9) * alpha
        assert alpha == pytest.approx(9e306) and beta == pytest.approx(4e307)
        for gamma in (1e308, 1e307):  # both overflow, then beta alone
            with pytest.raises(ValueError, match=re.escape(f"gamma={gamma:g} is too large")):
                resolve_hyperparams(gamma, lm)


class TestPartitionFolds:
    @given(st.integers(2, 50), st.integers(2, 7), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_is_a_partition(self, num_labels, folds, seed):
        a = partition_folds(num_labels, folds, seed)
        assert a.shape == (num_labels,)
        assert a.min() >= 0 and a.max() < folds
        counts = np.bincount(a, minlength=folds)
        # array_split sizes differ by at most one
        assert counts.max() - counts.min() <= 1

    def test_deterministic_in_seed(self):
        np.testing.assert_array_equal(partition_folds(100, 5, 7),
                                      partition_folds(100, 5, 7))
        assert not np.array_equal(partition_folds(100, 5, 7),
                                  partition_folds(100, 5, 8))


class TestHeldoutLoglik:
    def test_empty_heldout_scores_zero(self):
        lm = synthetic.random_instance(3)
        hyper = HyperParams(alpha=1.0, beta=1.0)
        result = fit(lm, hyper)
        held = lm.subset(np.zeros(lm.num_labels, dtype=bool))
        assert heldout_loglik(result, held, hyper) == 0.0

    def test_zero_params_give_uniform_likelihood(self):
        lm = synthetic.random_instance(4)
        hyper = HyperParams(alpha=1.0, beta=1.0, max_outer_iters=1)
        result = fit(lm, hyper)
        result.worker_params[:] = 0.0
        result.item_params[:] = 0.0
        for scoring in ("marginal", "hard"):
            ll = heldout_loglik(result, lm, hyper, scoring)
            assert ll == pytest.approx(-np.log(lm.num_classes))

    def test_hard_scoring_conditions_on_argmax(self):
        lm = from_triples([("w", "i", 0)], 2)
        hyper = HyperParams(alpha=1.0, beta=1.0, max_outer_iters=1)
        result = fit(lm, hyper)
        result.worker_params[:] = [[[2.0, 0.0], [0.0, 0.0]]]
        result.item_params[:] = 0.0
        result.posterior[:] = [[1.0, 0.0]]
        expected = 2.0 - np.log(np.exp(2.0) + 1.0)  # log P(x=0 | y=0)
        assert heldout_loglik(result, lm, hyper, "hard") == pytest.approx(expected)


class TestCrossValidate:
    def test_tie_breaks_to_smaller_gamma(self, monkeypatch):
        lm = synthetic.random_instance(9)
        config = CVConfig(folds=2, gamma_grid=(0.5, 1.0, 2.0), max_outer_iters=5)
        monkeypatch.setattr("mmce.selection.heldout_loglik",
                            lambda *a, **k: -1.0)
        report = cross_validate(lm, config)
        assert report.selected_gamma == 0.5

    def test_grid_of_one(self):
        lm = synthetic.random_instance(2)
        report = cross_validate(lm, CVConfig(folds=2, gamma_grid=(1.5,),
                                             max_outer_iters=10))
        assert report.selected_gamma == 1.5
        assert report.alpha == pytest.approx(1.5 * lm.num_classes ** 2)

    def test_deterministic(self):
        conf = np.stack([synthetic.diagonal_confusion(2, 0.75)] * 8)
        lm, _ = synthetic.sample_labels(8, 40, 2, 4, conf, seed=6)
        config = CVConfig(folds=3, gamma_grid=(0.5, 2.0), max_outer_iters=20)
        r1 = cross_validate(lm, config)
        r2 = cross_validate(lm, config)
        assert r1.per_fold == r2.per_fold
        assert r1.selected_gamma == r2.selected_gamma

    def test_report_csv(self, tmp_path):
        lm = synthetic.random_instance(5)
        report = cross_validate(lm, CVConfig(folds=2, gamma_grid=(1.0,),
                                             max_outer_iters=5))
        path = tmp_path / "cv.csv"
        report.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "gamma,fold,heldout_loglik"
        assert len(lines) == 1 + 2 + 1  # header, 1 gamma x 2 folds, trailer
        assert lines[-1].startswith("# selected gamma=1.0")

    @pytest.mark.parametrize("grid,selected,edge", [
        ((0.25, 0.5, 1.0), 0.25, True), ((0.25, 0.5, 1.0), 1.0, True),
        ((4.0, 0.5, 1.0), 4.0, True), ((4.0, 0.5, 1.0), 0.5, True),
        ((0.25, 0.5, 1.0), 0.5, False), ((4.0, 0.5, 1.0), 1.0, False),
        ((1.0,), 1.0, False), ((0.5, 2.0), 2.0, True)])
    def test_at_edge(self, grid, selected, edge):
        report = CVReport(gamma_grid=grid, per_fold={g: [0.0] for g in grid},
                          mean_scores={g: 0.0 for g in grid}, selected_gamma=selected,
                          alpha=1.0, beta=1.0)
        assert report.at_edge is edge

    def test_more_folds_than_labels_rejected(self):
        # an empty held-out fold has no score; averaging in 0.0 would favor it
        lm = from_triples([("a", "i", 0), ("b", "i", 1), ("a", "j", 1)], 2)
        with pytest.raises(ValueError, match="3 labels into 5 folds"):
            cross_validate(lm, CVConfig(folds=5, gamma_grid=(0.5, 4.0)))

    def test_picks_sane_gamma_on_planted_data(self):
        conf = np.stack([synthetic.diagonal_confusion(2, 0.8)] * 10)
        lm, gold = synthetic.sample_labels(10, 60, 2, 4, conf, seed=3)
        report = cross_validate(lm, CVConfig(folds=3, gamma_grid=(0.25, 1.0, 4.0),
                                             max_outer_iters=50))
        hyper = HyperParams(alpha=report.alpha, beta=report.beta)
        result = fit(lm, hyper)
        assert error_rate(result.predicted, gold) <= 0.15


class TestValidationSelect:
    def test_metric_matches_error_rate(self):
        conf = np.stack([synthetic.diagonal_confusion(2, 0.8)] * 8)
        lm, gold = synthetic.sample_labels(8, 40, 2, 4, conf, seed=1)
        config = CVConfig(folds=2, gamma_grid=(0.5, 2.0), max_outer_iters=30)
        report = validation_select(lm, gold, config)
        assert report.metric == "error_rate"
        for g in config.gamma_grid:
            alpha, beta = resolve_hyperparams(g, lm)
            result = fit(lm, config.hyper(alpha, beta))
            assert report.mean_scores[g] == pytest.approx(
                error_rate(result.predicted, gold))
        assert report.mean_scores[report.selected_gamma] == min(
            report.mean_scores.values())

    def test_ordinal_mode_uses_mse(self):
        conf = np.stack([synthetic.diagonal_confusion(3, 0.8)] * 6)
        lm, gold = synthetic.sample_labels(6, 20, 3, 3, conf, seed=2)
        config = CVConfig(folds=2, gamma_grid=(1.0,), mode="ordinal",
                          max_outer_iters=20)
        report = validation_select(lm, gold, config)
        assert report.metric == "mse"

    def test_empty_gold_rejected(self):
        lm = synthetic.random_instance(1)
        with pytest.raises(ValueError):
            validation_select(lm, GoldLabels({}), CVConfig(folds=2))


class TestCVConfigValidation:
    def test_bad_folds(self):
        with pytest.raises(ValueError):
            CVConfig(folds=1)

    def test_bad_scoring(self):
        with pytest.raises(ValueError):
            CVConfig(heldout_scoring="soft")

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            CVConfig(gamma_grid=())

    def test_repeated_grid_value(self):
        with pytest.raises(ValueError, match="must not repeat"):
            CVConfig(gamma_grid=(0.5, 1, 1.0))
