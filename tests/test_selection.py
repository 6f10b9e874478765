import functools
import os
import re
import threading
import time
from select import select as select_fds

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmce import selection, synthetic
from mmce.confusion import Mode, RegularizerVariant
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

from conftest import assert_no_child_left


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

    @pytest.mark.parametrize("mode,metric", [("multiclass", "error_rate"),
                                             ("ordinal", "mean_square_error")])
    def test_tie_breaks_to_smaller_gamma(self, monkeypatch, mode, metric):
        lm = synthetic.random_instance(9)
        gold = GoldLabels({0: 0, 1: 1})
        config = CVConfig(gamma_grid=(2.0, 0.5, 1.0), mode=mode, max_outer_iters=5)
        monkeypatch.setattr(f"mmce.selection.{metric}", lambda *a, **k: 0.25)
        report = validation_select(lm, gold, config)
        assert report.selected_gamma == 0.5
        assert report.mean_scores == {2.0: 0.25, 0.5: 0.25, 1.0: 0.25}

    def test_empty_gold_rejected(self):
        lm = synthetic.random_instance(1)
        with pytest.raises(ValueError):
            validation_select(lm, GoldLabels({}), CVConfig(folds=2))


def planted_and_gold():
    conf = np.stack([synthetic.diagonal_confusion(2, 0.75)] * 8)
    return synthetic.sample_labels(8, 40, 2, 4, conf, seed=6)


def run_selection(select, labels, gold, config):
    return (select(labels, config) if select is cross_validate
            else select(labels, gold, config))


class TestFitsOnSeveralCPUs:
    @pytest.mark.parametrize("select", [cross_validate, validation_select])
    def test_report_equals_the_one_cpu_report(self, monkeypatch, select):
        lm, gold = planted_and_gold()
        config = CVConfig(folds=3, gamma_grid=(0.25, 1.0, 4.0), max_outer_iters=20)
        reports = []
        for cpus in (1, 3):  # three workers on a host of any size
            monkeypatch.setattr(selection, "_usable_cpus", lambda cpus=cpus: cpus)
            reports.append(run_selection(select, lm, gold, config))
        assert reports[0] == reports[1]  # per-fold scores compared exactly
        assert_no_child_left()

    @pytest.mark.parametrize("select", [cross_validate, validation_select])
    def test_tasks_run_in_the_caller_and_one_worker_per_further_cpu(self, monkeypatch,
                                                                    select):
        # each task scores with the id of the process that ran it; on 2 CPUs the
        # caller's scores wait until the worker has scored, so that it surely has
        caller, (scored, scoring) = os.getpid(), os.pipe()

        def score_with_pid(*args):
            if os.getpid() != caller:
                os.write(scoring, b"x")
            elif selection._usable_cpus() > 1:
                assert select_fds([scored], [], [], 30)[0]
            return float(os.getpid())

        monkeypatch.setattr(selection, "heldout_loglik", score_with_pid)
        monkeypatch.setattr(selection, "error_rate", score_with_pid)
        lm, gold = planted_and_gold()
        config = CVConfig(folds=3, gamma_grid=(0.25, 1.0, 4.0), max_outer_iters=2)
        try:
            for cpus in (1, 2):
                monkeypatch.setattr(selection, "_usable_cpus", lambda cpus=cpus: cpus)
                report = run_selection(select, lm, gold, config)
                pids = {s for scores in report.per_fold.values() for s in scores}
                assert caller in pids and len(pids) == cpus
        finally:
            os.close(scored)
            os.close(scoring)
        assert_no_child_left()

    def test_of_two_raising_tasks_the_lower_one_wins(self, monkeypatch):
        # task 1 raises first, in one process; task 0 raises after it, in the other
        monkeypatch.setattr(selection, "_usable_cpus", lambda: 2)
        raised, raising = os.pipe()

        def task(i):
            if i == 1:
                os.write(raising, b"x")
            else:
                assert select_fds([raised], [], [], 30)[0]
            raise ValueError(f"task {i} failed")

        try:
            with pytest.raises(ValueError, match="^task 0 failed$"):
                selection._map(task, [(0,), (1,)])
        finally:
            os.close(raised)
            os.close(raising)
        assert_no_child_left()

    def test_a_raising_task_stops_the_deal(self, monkeypatch):
        # without the stop, the other 199 tasks would take about a second each side
        monkeypatch.setattr(selection, "_usable_cpus", lambda: 2)
        started, starting = os.pipe()

        def task(i):
            os.write(starting, b"x")
            if i == 0:
                raise ValueError("task 0 failed")
            time.sleep(0.01)

        try:
            with pytest.raises(ValueError, match="^task 0 failed$"):
                selection._map(task, [(i,) for i in range(200)])
        finally:
            os.close(starting)
        with open(started, "rb") as fh:
            assert 1 <= len(fh.read()) < 100
        assert_no_child_left()

    def test_more_tasks_than_a_pipe_holds_run_in_order(self, monkeypatch):
        # more task records than a default 64 KiB pipe holds unread
        monkeypatch.setattr(selection, "_usable_cpus", lambda: 2)
        args = [(i,) for i in range(65536 // selection._RECORD.size + 3)]
        assert selection._map(lambda i: -i, args) == [-i for i in range(len(args))]
        assert_no_child_left()

    def test_a_process_with_threads_does_not_fork(self, monkeypatch):
        monkeypatch.setattr(selection, "heldout_loglik", lambda *a: float(os.getpid()))
        monkeypatch.setattr(selection, "_usable_cpus", lambda: 2)
        lm, _ = planted_and_gold()
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            report = cross_validate(lm, CVConfig(folds=2, gamma_grid=(1.0,),
                                                 max_outer_iters=2))
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert report.per_fold == {1.0: [float(os.getpid())] * 2}

    @pytest.mark.parametrize("select", [cross_validate, validation_select])
    def test_a_wrapped_fit_sees_every_fit_in_this_process(self, monkeypatch, select):
        fit, pids = selection.solver.fit, []

        @functools.wraps(fit)
        def recorded(*args, **kwargs):
            pids.append(os.getpid())
            return fit(*args, **kwargs)

        monkeypatch.setattr(selection.solver, "fit", recorded)
        monkeypatch.setattr(selection, "_usable_cpus", lambda: 2)
        lm, gold = planted_and_gold()
        config = CVConfig(folds=3, gamma_grid=(0.25, 1.0), max_outer_iters=2)
        run_selection(select, lm, gold, config)
        assert pids == [os.getpid()] * (6 if select is cross_validate else 2)
        assert_no_child_left()

    @pytest.mark.parametrize("select", [cross_validate, validation_select])
    def test_counts_the_fits_that_did_not_converge(self, select):
        lm, gold = planted_and_gold()
        fits = 6 if select is cross_validate else 2
        for iters, unconverged in ((1, fits), (200, 0)):
            config = CVConfig(folds=3, gamma_grid=(0.25, 1.0), max_outer_iters=iters)
            assert run_selection(select, lm, gold, config).unconverged_fits == unconverged


class TestCVConfigValidation:
    def test_bad_folds(self):
        with pytest.raises(ValueError):
            CVConfig(folds=1)

    @pytest.mark.parametrize("settings, message", [
        ({"folds": 2.5}, "folds must be an integer, got 2.5"),
        ({"seed": -1}, "seed must be an integer >= 0, got -1"),
        ({"seed": 1.5}, "seed must be an integer >= 0, got 1.5"),
        ({"seed": None}, "seed must be an integer >= 0, got None"),
        ({"folds": True}, "folds must be an integer, got True"),
        ({"seed": False}, "seed must be an integer >= 0, got False"),
        ({"seed": True}, "seed must be an integer >= 0, got True"),
    ])
    def test_folds_and_seed_are_checked_at_construction(self, settings, message):
        # refused up front, not by numpy or range() in the middle of a run
        with pytest.raises(ValueError) as got:
            CVConfig(**settings)
        assert str(got.value) == message

    def test_numpy_integers_are_integers(self):
        CVConfig(folds=np.int64(3), seed=np.int64(0), max_outer_iters=np.int64(5))

    def test_bad_scoring(self):
        with pytest.raises(ValueError):
            CVConfig(heldout_scoring="soft")

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            CVConfig(gamma_grid=())

    def test_repeated_grid_value(self):
        with pytest.raises(ValueError, match="must not repeat"):
            CVConfig(gamma_grid=(0.5, 1, 1.0))

    @pytest.mark.parametrize("settings", [{"tol": 0}, {"max_outer_iters": 0},
                                          {"mode": "ordinal", "variant": "centered"},
                                          {"max_outer_iters": 2.5},
                                          {"max_outer_iters": True}])
    def test_solver_settings_are_checked_at_construction(self, settings):
        # the first fit would refuse them; the config refuses them up front
        with pytest.raises(ValueError) as want:
            HyperParams(**settings)
        with pytest.raises(ValueError) as got:
            CVConfig(**settings)
        assert str(got.value) == str(want.value)

    def test_mode_and_variant_are_coerced(self):
        config = CVConfig(mode="ordinal", variant="euclidean")
        assert config.mode is Mode.ORDINAL
        assert config.variant is RegularizerVariant.EUCLIDEAN
