import dataclasses
import sys
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from mmce import solver, synthetic
from mmce.baselines import _ds_log_joint, _ds_m_step
from mmce.confusion import (
    Mode,
    RegularizerVariant,
    expand_ordinal,
    init_params,
    ordinal_basis,
    project_ordinal,
    regularizer_gradient,
    regularizer_value,
)
from mmce.data import from_triples
from mmce.selection import CVConfig, partition_folds, resolve_hyperparams
from mmce.solver import (
    FitResult,
    HyperParams,
    dual_objective,
    e_step,
    entropy,
    fit,
    initialize_posterior,
    kl_identity_check,
    m_step,
    m_step_gradients,
    penalized_likelihood,
    polish_stationary_point,
    round_posterior,
)

from conftest import logsumexp, softmax


def random_state(lm, seed, mode=Mode.MULTICLASS, scale=0.5):
    rng = np.random.default_rng(seed)
    K = lm.num_classes
    wp = rng.normal(scale=scale, size=init_params(mode, lm.num_workers, K).shape)
    ip = rng.normal(scale=scale, size=init_params(mode, lm.num_items, K).shape)
    q = rng.random((lm.num_items, K))
    q /= q.sum(axis=1, keepdims=True)
    return wp, ip, q


def fd_derivatives(lm, q, wp, ip, hyper, eps=1e-5):
    """Central finite-difference first and second derivatives of the penalized
    likelihood along every single score: ([worker, item], [worker, item])."""
    f0 = penalized_likelihood(lm, q, wp, ip, hyper)
    first, second = [], []
    for tensor in (wp, ip):
        d1, d2 = np.zeros_like(tensor), np.zeros_like(tensor)
        for idx in np.ndindex(tensor.shape):
            orig = tensor[idx]
            tensor[idx] = orig + eps
            fp = penalized_likelihood(lm, q, wp, ip, hyper)
            tensor[idx] = orig - eps
            fm = penalized_likelihood(lm, q, wp, ip, hyper)
            tensor[idx] = orig
            d1[idx] = (fp - fm) / (2 * eps)
            d2[idx] = (fp - 2 * f0 + fm) / eps ** 2
        first.append(d1)
        second.append(d2)
    return first, second


class TestHyperParams:
    @pytest.mark.parametrize("field, value, message", [
        ("alpha", -1.0, "alpha and beta"),
        ("alpha", float("nan"), "alpha and beta"),
        ("alpha", float("inf"), "alpha and beta"),
        ("beta", float("nan"), "alpha and beta"),
        ("beta", float("inf"), "alpha and beta"),
        ("tol", 0.0, "tol"),
        ("tol", float("nan"), "tol"),
        ("tol", float("inf"), "tol"),
        ("max_outer_iters", 2.5, "^max_outer_iters must be an integer, got 2.5$"),
        ("max_outer_iters", True, "^max_outer_iters must be an integer, got True$"),
    ])
    def test_out_of_range_values_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            HyperParams(**{field: value})


class TestInitializePosterior:
    def test_vote_counts(self):
        lm = from_triples([("a", "i", 0), ("b", "i", 0), ("c", "i", 1)], 2)
        np.testing.assert_allclose(initialize_posterior(lm), [[2 / 3, 1 / 3]])

    def test_unlabeled_item_uniform(self):
        lm = from_triples([("a", "i", 0)], 4, item_ids=["i", "empty"])
        np.testing.assert_allclose(initialize_posterior(lm)[1], np.full(4, 0.25))

    def test_bit_equal_to_the_masked_assignment(self):
        # the body before one masked divide: uniform rows, then the labeled
        # ones; every other label dropped leaves some items unlabeled
        for seed in range(12):
            lm = synthetic.random_instance(seed)
            lm = lm.subset(np.arange(lm.num_labels) % 2 == 0)
            n, K = lm.num_items, lm.num_classes
            counts = np.zeros((n, K))
            np.add.at(counts, (lm.items, lm.labels), 1.0)
            totals = counts.sum(axis=1, keepdims=True)
            want = np.full((n, K), 1.0 / K)
            labeled = totals[:, 0] > 0
            want[labeled] = counts[labeled] / totals[labeled]
            assert initialize_posterior(lm).tobytes() == want.tobytes()

    def test_three_worker_item1(self, three_worker_labels):
        np.testing.assert_allclose(initialize_posterior(three_worker_labels)[0],
                                   [2 / 3, 1 / 3, 0.0])


class TestEStep:
    def test_uniform_model_gives_uniform_rows(self, three_worker_labels):
        h = HyperParams()
        K = 3
        q = e_step(three_worker_labels,
                   np.zeros((3, K, K)), np.zeros((6, K, K)), h)
        np.testing.assert_allclose(q, np.full((6, 3), 1 / 3), atol=1e-12)

    def test_bayes_product_oracle(self):
        # two workers both answer 0; per-worker P(0|Y=0)=0.8, P(0|Y=1)=0.3
        lm = from_triples([("a", "i", 0), ("b", "i", 0)], 2)
        sigma = np.log(np.array([[[0.8, 0.2], [0.3, 0.7]]] * 2))
        q = e_step(lm, sigma, np.zeros((1, 2, 2)), HyperParams())
        np.testing.assert_allclose(q[0], [0.64 / 0.73, 0.09 / 0.73], atol=1e-12)

    def test_e_step_never_decreases_dual(self):
        h = HyperParams(alpha=0.5, beta=0.5)
        for seed in range(100):
            lm = synthetic.random_instance(seed)
            wp, ip, q = random_state(lm, seed + 1000)
            before = dual_objective(lm, q, wp, ip, h)
            after = dual_objective(lm, e_step(lm, wp, ip, h), wp, ip, h)
            assert after >= before - 1e-9

    def test_rows_sum_to_one(self):
        for seed in range(20):
            lm = synthetic.random_instance(seed)
            wp, ip, _ = random_state(lm, seed, scale=3.0)
            q = e_step(lm, wp, ip, HyperParams())
            np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-12)


class TestGradients:
    def test_zero_params_zero_alpha_closed_form(self):
        lm = from_triples([("a", "i", 1), ("a", "j", 0)], 2)
        q = np.array([[0.7, 0.3], [0.2, 0.8]])
        h = HyperParams(alpha=0.0, beta=0.0)
        gw, _ = m_step_gradients(lm, q, np.zeros((1, 2, 2)), np.zeros((2, 2, 2)), h)
        expected = np.array([[q[0, 0] * (0 - 0.5) + q[1, 0] * (1 - 0.5),
                              q[0, 0] * (1 - 0.5) + q[1, 0] * (0 - 0.5)],
                             [q[0, 1] * (0 - 0.5) + q[1, 1] * (1 - 0.5),
                              q[0, 1] * (1 - 0.5) + q[1, 1] * (0 - 0.5)]])
        np.testing.assert_allclose(gw[0], expected, atol=1e-12)

    def test_zero_posterior_mass_contributes_nothing(self):
        lm = from_triples([("a", "i", 0)], 2)
        q = np.array([[1.0, 0.0]])
        h = HyperParams(alpha=0.0, beta=0.0)
        wp, ip, _ = random_state(lm, 2)
        gw, _ = m_step_gradients(lm, q, wp, ip, h)
        np.testing.assert_allclose(gw[0, 1], 0.0, atol=1e-15)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_matches_finite_differences(self, mode):
        for seed in range(5):
            lm = synthetic.random_instance(seed)
            wp, ip, q = random_state(lm, seed + 1, mode=mode)
            h = HyperParams(alpha=0.5, beta=2.0, mode=mode)
            gw, gi = m_step_gradients(lm, q, wp, ip, h)
            (fw, fi), _ = fd_derivatives(lm, q, wp, ip, h)
            np.testing.assert_allclose(gw, fw, rtol=1e-6, atol=1e-7)
            np.testing.assert_allclose(gi, fi, rtol=1e-6, atol=1e-7)

    def test_centered_variant_matches_finite_differences(self):
        lm = synthetic.random_instance(3)
        wp, ip, q = random_state(lm, 4)
        h = HyperParams(alpha=1.5, beta=0.5, variant=RegularizerVariant.CENTERED)
        gw, gi = m_step_gradients(lm, q, wp, ip, h)
        (fw, fi), _ = fd_derivatives(lm, q, wp, ip, h)
        np.testing.assert_allclose(gw, fw, rtol=1e-6, atol=1e-7)
        np.testing.assert_allclose(gi, fi, rtol=1e-6, atol=1e-7)

    def test_ordinal_gradient_is_masked_sum_of_multiclass(self):
        from mmce.confusion import expand_ordinal, project_ordinal
        for seed in range(5):
            lm = synthetic.random_instance(seed)
            K = lm.num_classes
            wp, ip, q = random_state(lm, seed + 7, mode=Mode.ORDINAL)
            ho = HyperParams(alpha=0.7, beta=0.7, mode=Mode.ORDINAL)
            hm = HyperParams(alpha=0.0, beta=0.0, mode=Mode.MULTICLASS)
            gow, goi = m_step_gradients(lm, q, wp, ip, ho)
            gmw, gmi = m_step_gradients(lm, q, expand_ordinal(wp, K),
                                        expand_ordinal(ip, K), hm)
            np.testing.assert_allclose(gow, project_ordinal(gmw, K) - 0.7 * wp, atol=1e-10)
            np.testing.assert_allclose(goi, project_ordinal(gmi, K) - 0.7 * ip, atol=1e-10)


class TestCurvatureBound:
    @pytest.mark.parametrize("mode,variant", [
        (Mode.MULTICLASS, RegularizerVariant.EUCLIDEAN),
        (Mode.ORDINAL, RegularizerVariant.EUCLIDEAN),
        (Mode.MULTICLASS, RegularizerVariant.CENTERED)])
    def test_bounds_curvature_along_every_score(self, mode, variant):
        # At zero scores with K = 2, P = 1/2 makes the bound tight, so a smaller
        # factor than 1/4, or ordinal pooling that drops mass, fails here.
        h = HyperParams(alpha=0.5, beta=2.0, mode=mode, variant=variant)
        for seed in range(12):
            lm = synthetic.random_instance(seed)
            for scale in (0.0, 0.5, 2.0):
                wp, ip, q = random_state(lm, seed + 80, mode=mode, scale=scale)
                bounds = solver._curvature_bound(lm, q, h)
                _, second = fd_derivatives(lm, q, wp, ip, h, eps=1e-3)
                for d2, b in zip(second, bounds):
                    assert d2.shape == b.shape
                    assert np.all(d2 >= -b - 1e-5 * (1 + b))

    @pytest.mark.parametrize("K", range(3, 7))
    def test_ordinal_bound_is_at_most_the_pooled_bound(self, K):
        # An ordinal score touching a row at several cells counts that row's
        # mass once, where pooling counted it once per cell. Where the two add
        # the same terms, their order may differ in the last bit.
        lm, q = planted_with_posterior(K)
        h = HyperParams(alpha=0.7, beta=1.3, mode=Mode.ORDINAL)
        below = []
        for got, want in zip(solver._curvature_bound(lm, q, h), pooled_bound(lm, q, h)):
            assert got.shape == want.shape
            assert np.all(got <= want * (1 + 1e-15))
            below.append(np.any(got < want))
        assert all(below)


def planted_with_posterior(K):
    """A planted 8 x 30 instance with K classes and a random posterior."""
    conf = np.stack([synthetic.diagonal_confusion(K, 0.7)] * 8)
    lm, _ = synthetic.sample_labels(8, 30, K, 4, conf, seed=K)
    q = np.random.default_rng(K).random((lm.num_items, K))
    return lm, q / q.sum(axis=1, keepdims=True)


def pooled_bound(lm, q, h):
    """The dense-cell bound 1/4 sum_l Q_l(c) + ridge at every cell (c, k),
    pooled onto ordinal scores with `project_ordinal`."""
    K = lm.num_classes
    mass = 0.25 * np.take(q, lm.items, axis=0)
    bounds = []
    for index, size, ridge in ((lm.workers, lm.num_workers, h.alpha),
                               (lm.items, lm.num_items, h.beta)):
        dense = np.repeat(column_scatter(index, mass, size)[:, :, None], K, axis=2)
        bounds.append((project_ordinal(dense, K) if h.mode == Mode.ORDINAL
                       else dense) + ridge)
    return bounds


def planted_gamma_one(mode=Mode.MULTICLASS, per_item=10, workers=30, items=200):
    """A planted workers x items (30 x 200), K = 3 instance with per_item labels
    per item and its gamma = 1 hyperparameters."""
    conf = np.stack([synthetic.diagonal_confusion(3, 0.8)] * workers)
    lm, _ = synthetic.sample_labels(workers, items, 3, per_item, conf, seed=0)
    alpha, beta = resolve_hyperparams(1.0, lm)
    return lm, HyperParams(alpha=alpha, beta=beta, mode=mode)


def counted_calls(monkeypatch, name):
    """A list that gains one entry per call of `solver.<name>` from now on."""
    calls = []
    fn = getattr(solver, name)

    def counted(*args):
        calls.append(1)
        return fn(*args)

    monkeypatch.setattr(solver, name, counted)
    return calls


def counted_model_passes(monkeypatch):
    """A list that gains one entry per `_log_model` call from now on."""
    return counted_calls(monkeypatch, "_log_model")


def count_line_search(monkeypatch, refuse_peaks=False):
    """Counts, over what follows, of model passes, m_step calls, objective
    calls inside m_step, parabola retries among those ("peaks": a point whose
    step along the first trial's direction is not a power of two) and repeated
    evaluations of one point. With refuse_peaks each retried peak scores -inf,
    after its model pass, so m_step must keep its accepted trial."""
    counts = {"model": 0, "objective": 0, "m_step": 0, "peaks": 0, "repeats": 0}
    inside, points = [False], []  # the flat score points of the running m_step's calls
    model, objective, step = solver._log_model, solver.penalized_likelihood, solver.m_step

    def counted_model(*args):
        counts["model"] += 1
        return model(*args)

    def counted_step(*args):
        counts["m_step"] += 1
        inside[0], points[:] = True, []
        try:
            return step(*args)
        finally:
            inside[0] = False

    def counted_objective(labels, posterior, wp, ip, hyper):
        value = objective(labels, posterior, wp, ip, hyper)
        if not inside[0]:
            return value
        counts["objective"] += 1
        x = np.concatenate([wp.ravel(), ip.ravel()])
        counts["repeats"] += any(np.array_equal(x, p) for p in points)
        if len(points) >= 2:
            d = points[1] - points[0]
            t = float((x - points[0]) @ d / (d @ d))
            if abs(np.log2(t) - np.round(np.log2(t))) > 0.1:
                counts["peaks"] += 1
                value = -np.inf if refuse_peaks else value
        points.append(x)
        return value

    monkeypatch.setattr(solver, "_log_model", counted_model)
    monkeypatch.setattr(solver, "m_step", counted_step)
    monkeypatch.setattr(solver, "penalized_likelihood", counted_objective)
    return counts


def dense_fold(seed, index, gamma):
    """`dense_two_coin(seed, index)` without CV fold 0 of select's default
    split, with the gamma resolved on the whole input as select does."""
    lm, _ = dense_two_coin(seed, index)
    alpha, beta = resolve_hyperparams(gamma, lm)
    train = partition_folds(lm.num_labels, 5, 42) != 0
    return lm.subset(train), HyperParams(alpha=alpha, beta=beta)


class TestMStep:
    @pytest.mark.parametrize("mode", list(Mode))
    def test_default_fit_makes_about_one_model_pass_per_outer_iteration(
            self, monkeypatch, mode):
        # An ascent step that passes at size 1 is one pass per iteration (the
        # all-zero start's uniform model needs none), and a parabola retry one
        # more: 5 over 5 iterations (multiclass) and 9 over 6 (ordinal). Steps
        # that mostly need halving break the bound.
        lm, h = planted_gamma_one(mode)
        calls = counted_model_passes(monkeypatch)
        r = fit(lm, h)
        assert r.converged and r.line_search_failures == 0
        assert len(calls) <= 2 * r.iterations

    @pytest.mark.parametrize("mode", list(Mode))
    def test_one_step_and_exact_m_steps_reach_the_same_optimum(self, mode):
        # One ascent step per M-step changes the path, not the fixed point: run
        # to a tight stop, it agrees with the alternation of exact block
        # maximizers to 4.4e-7 (multiclass) and 1.3e-6 (ordinal).
        lm, h = planted_gamma_one(mode)
        tight = dataclasses.replace(h, tol=1e-12, max_outer_iters=10_000)
        one = fit(lm, tight)
        exact = fit(lm, dataclasses.replace(tight, exact_m_step=True))
        assert one.converged and exact.converged
        assert np.max(np.abs(one.posterior - exact.posterior)) <= 1e-5

    @pytest.mark.parametrize("case", [*Mode, "retried peaks", "refused peaks"])
    def test_one_model_pass_per_line_search_trial(self, monkeypatch, case):
        # Across a whole fit, every model pass is a line-search trial: the
        # all-zero start's uniform model needs none. A parabola retry is a
        # trial, and so is the accepted trial's second evaluation after a
        # refused peak.
        counts = count_line_search(monkeypatch, refuse_peaks=case == "refused peaks")
        if case == "retried peaks":
            lm, h = dense_fold(101, 0, 2.0)
        else:
            lm, h = planted_gamma_one(Mode.ORDINAL if case == "refused peaks" else case)
        r = fit(lm, h)
        assert r.line_search_failures == 0
        assert counts["m_step"] == r.iterations
        trials = counts["objective"] - counts["m_step"]
        assert counts["model"] == trials
        if case == "refused peaks":
            assert counts["peaks"] > 0 and counts["repeats"] == counts["peaks"]
        else:
            assert counts["repeats"] == 0
        if case != Mode.MULTICLASS:
            assert counts["peaks"] > 0

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("per_item, shape, bound", [
        (10, (30, 200), 3.55), (2, (30, 200), 5.2), (1, (30, 200), 7.3),
        (5, (100, 4000), 2.8)], ids=["10 per item", "2 per item", "1 per item", "100x4000"])
    def test_fit_peak_memory_is_bounded_by_the_model_size(self, mode, per_item, shape, bound):
        # A fit holds one (L, K, K) model at a time and no second table of
        # that size: the model pass adds the item scores and the gradient
        # builds its per-observation terms one true class at a time, as (K, L)
        # slabs. At 10 labels per item the peak is 3.42 (multiclass) and 3.38
        # (ordinal) model sizes, where those two (K, K, L) temporaries took
        # 3.64 and 3.81. At 1 label per item an item score table is one model
        # size too, and m_step holds the direction and one trial point: 7.18
        # and 6.96, where a line search that also kept the shifted start point
        # took 8.72 and 9.40 (2 per item: 5.10 and 4.90, against 5.75 and
        # 6.10). There the model is 14-144 KB, and numpy's fixed ufunc buffers
        # and Python's object headers weigh. At fit-multiclass's shape (100 x
        # 4000, 5 per item) the model is 1.4 MB: 2.69 and 2.67, where a fit
        # that kept each half of its model past its last reader, the bound
        # beside the direction and a scatter's staging copy took 3.11 and 3.06.
        # Over sample seeds 0-9 each peak moved by at most 0.01; each bound is
        # the larger mode's peak plus about 0.10-0.13.
        lm, h = planted_gamma_one(mode, per_item, *shape)
        fit(lm, h)  # fills caches that would otherwise count toward the peak
        tracemalloc.start()
        try:
            fit(lm, h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        model_size = lm.num_labels * lm.num_classes ** 2 * 8
        assert peak <= bound * model_size, f"peak {peak / model_size:.2f} model sizes"

    @pytest.mark.parametrize("mode", list(Mode))
    def test_model_passes_run_inside_objective_or_gradient(self, monkeypatch, mode):
        # The benchmark tracer counts line-search trials and accepted steps from
        # the objective and gradient calls under m_step, so m_step must make its
        # model passes through those two functions only. This also keeps the
        # benchmark self-test's solver.linesearch_evals > 0 on fit-multiclass
        # (perfbench/selftest.py, NONZERO), so m_step keeps this call shape.
        stack, parents = [], []

        def probe(name, fn):
            def wrapped(*args, **kwargs):
                if name == "model":
                    parents.append(stack[-1] if stack else None)
                stack.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()
            return wrapped

        for attr, name in (("penalized_likelihood", "objective"),
                           ("m_step_gradients", "gradient"), ("_log_model", "model")):
            monkeypatch.setattr(solver, attr, probe(name, getattr(solver, attr)))
        h = HyperParams(alpha=0.5, beta=0.5, mode=mode)
        for seed in range(10):
            lm = synthetic.random_instance(seed)
            wp, ip, q = random_state(lm, seed + 31, mode=mode)
            result = solver.m_step(lm, q, wp, ip, h)
            assert isinstance(result, tuple) and len(result) == 3
            assert isinstance(result[2], bool)
        assert parents
        assert set(parents) <= {"objective", "gradient"}

    def test_stationary_point_unchanged(self):
        # balanced labels + uniform posterior: every observed count matches the
        # uniform model's expectation, so the gradient is exactly zero
        lm = from_triples([("a", "i", 0), ("a", "j", 1), ("b", "i", 1), ("b", "j", 0)], 2)
        q = np.full((2, 2), 0.5)
        h = HyperParams(alpha=0.0, beta=0.0)
        wp, ip = np.zeros((2, 2, 2)), np.zeros((2, 2, 2))
        w2, i2, failed = m_step(lm, q, wp, ip, h)
        assert not failed
        np.testing.assert_array_equal(w2, wp)
        np.testing.assert_array_equal(i2, ip)

    def test_failed_line_search_keeps_the_scores(self, monkeypatch):
        # No trial meets an Armijo constant this large, so the search fails:
        # m_step returns the very arrays it was given, after one model pass
        # for the start value, one for the gradient and one per trial.
        monkeypatch.setattr(solver, "ARMIJO", 1e300)
        lm = synthetic.random_instance(3)
        wp, ip, q = random_state(lm, 4)
        h = HyperParams(alpha=0.5, beta=0.5, max_outer_iters=3)
        calls = counted_model_passes(monkeypatch)
        w2, i2, failed = m_step(lm, q, wp, ip, h)
        assert failed and w2 is wp and i2 is ip
        assert len(calls) == 2 + solver.MAX_HALVINGS
        # a fit counts each failed step and keeps the scores it failed at; the
        # objective then barely moves, which shows no stationary point, so the
        # fit stops unconverged. Its start value is held, and the gradient takes
        # the held prob, so each failed step makes one pass per trial and one
        # more for the trace and E-step at the kept scores.
        calls.clear()
        r = fit(lm, h)
        assert r.iterations >= 1 and r.line_search_failures == r.iterations
        assert not r.converged
        assert len(calls) == r.iterations * (solver.MAX_HALVINGS + 1)
        assert_fit_equals_reference(lm, h)

    def test_huge_penalty_drives_params_to_zero(self):
        lm = synthetic.random_instance(5)
        wp, ip, q = random_state(lm, 6, scale=1.0)
        h = HyperParams(alpha=1e6, beta=1e6)
        w2, i2, _ = m_step(lm, q, wp, ip, h)
        assert np.max(np.abs(w2)) < np.max(np.abs(wp)) * 1e-2
        assert np.max(np.abs(i2)) < np.max(np.abs(ip)) * 1e-2

    @pytest.mark.parametrize("mode", list(Mode))
    def test_zero_mass_scores_without_penalty(self, mode):
        # An unlabeled item and a class no item believes in have no posterior
        # mass and, at alpha = beta = 0, no penalty: their bound is 0, their
        # gradient is 0, and their scores must stay put without a warning.
        lm = from_triples([("a", "i", 0), ("b", "i", 1), ("a", "j", 1)], 3,
                          item_ids=["i", "j", "empty"])
        q = np.array([[0.6, 0.4, 0.0], [0.3, 0.7, 0.0], [0.5, 0.5, 0.0]])
        h = HyperParams(alpha=0.0, beta=0.0, mode=mode)
        wp = init_params(mode, lm.num_workers, 3)
        ip = init_params(mode, lm.num_items, 3)
        assert not np.any(solver._curvature_bound(lm, q, h)[1][2])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            w2, i2, failed = m_step(lm, q, wp, ip, h)
        assert not failed
        assert np.all(np.isfinite(w2)) and np.all(np.isfinite(i2))
        np.testing.assert_array_equal(i2[2], ip[2])

    def test_never_decreases_objective(self):
        for mode in Mode:
            for seed in range(100):
                lm = synthetic.random_instance(seed)
                wp, ip, q = random_state(lm, seed + 31, mode=mode)
                h = HyperParams(alpha=0.5, beta=0.5, mode=mode)
                before = penalized_likelihood(lm, q, wp, ip, h)
                w2, i2, _ = m_step(lm, q, wp, ip, h)
                after = penalized_likelihood(lm, q, w2, i2, h)
                assert after >= before - 1e-9

    def test_sparse_multiclass_steps_pass_at_full_size(self, monkeypatch):
        # On a fit-multiclass-shaped input (100 x 4000, K = 3, 5 labels per
        # item) each parabola peaks past PEAK_RETRY of the step, so no step is
        # halved or retried: one model pass per outer iteration, none at the start.
        accuracy = 0.55 + 0.3 * (np.arange(100) + 0.5) / 100
        conf = np.stack([synthetic.diagonal_confusion(3, a) for a in accuracy])
        lm, _ = synthetic.sample_labels(100, 4000, 3, 5, conf, seed=0)
        alpha, beta = resolve_hyperparams(1.0, lm)
        calls = counted_model_passes(monkeypatch)
        r = fit(lm, HyperParams(alpha=alpha, beta=beta))
        assert r.converged
        assert len(calls) == r.iterations

    @pytest.mark.parametrize("seed", [101, 102, 103])
    @pytest.mark.parametrize("index", [0, 1])
    def test_dense_fold_fits_do_not_zigzag(self, seed, index):
        # On a dense CV fold at gamma = 2 the parabola through each accepted
        # step peaks near half the step, so full steps alone overshoot every
        # time: those fits took 45-91 outer iterations; with the retry, 9, and
        # with each trial also on the optimal worker/item split, 6-8.
        r = fit(*dense_fold(seed, index, 2.0))
        assert r.converged and r.iterations <= 20


LOG_MODEL = solver._log_model  # the model pass itself, never counted


def reference_fit(labels, hyper):
    """The fit loop outside a fit's scope, so every trace, E-step and M-step
    evaluation makes its own model pass."""
    K = labels.num_classes
    wp = init_params(hyper.mode, labels.num_workers, K)
    ip = init_params(hyper.mode, labels.num_items, K)
    posterior = initialize_posterior(labels)
    trace = [dual_objective(labels, posterior, wp, ip, hyper)]
    step_fn = solver.m_step_exact if hyper.exact_m_step else solver.m_step
    for _ in range(hyper.max_outer_iters):
        prev = trace[-1]
        wp, ip, _ = step_fn(labels, posterior, wp, ip, hyper)
        trace.append(dual_objective(labels, posterior, wp, ip, hyper))
        posterior = e_step(labels, wp, ip, hyper)
        trace.append(dual_objective(labels, posterior, wp, ip, hyper))
        if abs(trace[-1] - prev) < hyper.tol * max(abs(prev), solver.PROB_FLOOR):
            break
    return posterior, wp, ip, trace


def step_not_taken(step, call=1):
    """`step` except that its call number `call` returns the scores it is given."""
    calls = []

    def held(labels, posterior, worker_params, item_params, hyper):
        calls.append(1)
        if len(calls) == call:
            return worker_params, item_params, False
        return step(labels, posterior, worker_params, item_params, hyper)

    return held


def assert_fit_equals_reference(labels, hyper):
    r = fit(labels, hyper)
    posterior, wp, ip, trace = reference_fit(labels, hyper)
    assert np.array_equal(r.posterior, posterior)
    assert np.array_equal(r.worker_params, wp)
    assert np.array_equal(r.item_params, ip)
    assert np.array_equal(r.objective_trace, trace)


# Every entry point of the solver, called as (labels, posterior, worker scores,
# item scores, hyper).
ENTRY_POINTS = {
    "penalized_likelihood": penalized_likelihood,
    "dual_objective": dual_objective,
    "m_step_gradients": m_step_gradients,
    "e_step": lambda lm, q, wp, ip, h: e_step(lm, wp, ip, h),
    "m_step": m_step,
    "m_step_exact": solver.m_step_exact,
    "fit": lambda lm, q, wp, ip, h: fit(lm, h),
    "polish_stationary_point": lambda lm, q, wp, ip, h: polish_stationary_point(
        lm, FitResult(q, wp, ip, [], False, 0), h),
    "kl_identity_check": lambda lm, q, wp, ip, h: kl_identity_check(
        lm, FitResult(q, wp, ip, [], False, 0), h),
}


def fit_labels(lm):
    """A copy of the label matrix that holds a point record and a posterior
    record (`solver._point`, `solver._posterior`), as `fit` makes one."""
    lm = dataclasses.replace(lm)
    object.__setattr__(lm, "held", {})
    return lm


def fits_own_labels(monkeypatch):
    """A list that gains, per E-step from now on, a weakref to the label matrix
    it receives and the set of keys that matrix holds."""
    seen = []
    step = solver.e_step

    def probed(labels, *args):
        seen.append((weakref.ref(labels), set(labels.held)))
        return step(labels, *args)

    monkeypatch.setattr(solver, "e_step", probed)
    return seen


class TestModelMemo:
    """The point and posterior records shared within a fit, on its own copy of
    the label matrix."""

    def test_same_labels_and_scores_make_one_pass(self, monkeypatch):
        calls = counted_model_passes(monkeypatch)
        lm = synthetic.random_instance(3)
        wp, ip, q = random_state(lm, 4)
        h = HyperParams(alpha=0.7, beta=1.3)
        own = fit_labels(lm)
        value = penalized_likelihood(own, q, wp, ip, h)
        grads = m_step_gradients(own, q, wp, ip, h)
        posterior = e_step(own, wp, ip, h)
        dual_objective(own, q, wp, ip, h)
        assert len(calls) == 1
        e_step(own, wp.copy(), ip, h)  # equal values, other arrays: a new point
        assert len(calls) == 2
        # on a matrix that holds nothing each call makes its own pass, to the same values
        assert value == penalized_likelihood(lm, q, wp, ip, h)
        for got, want in zip(grads, m_step_gradients(lm, q, wp, ip, h)):
            assert np.array_equal(got, want)
        assert np.array_equal(posterior, e_step(lm, wp, ip, h))
        assert len(calls) == 5

    def test_equal_copies_are_new_inputs(self, monkeypatch):
        # Held values match their inputs by identity: an equal-valued copy of
        # the posterior or of the scores is computed afresh, to the same value.
        lm = synthetic.random_instance(3)
        wp, ip, q = random_state(lm, 4)
        h = HyperParams(alpha=0.7, beta=1.3)
        own = fit_labels(lm)
        passes, gathers = counted_model_passes(monkeypatch), counted_row_gathers(monkeypatch)
        penalties = counted_calls(monkeypatch, "regularizer_value")
        entropies = counted_calls(monkeypatch, "entropy")

        def counts():
            return len(passes), len(gathers), len(penalties), len(entropies)

        value = dual_objective(own, q, wp, ip, h)
        assert dual_objective(own, q, wp, ip, h) == value
        penalized_likelihood(own, q, wp, ip, h)
        assert counts() == (1, 1, 2, 1)
        q_copy, wp_copy = q.copy(), wp.copy()
        assert dual_objective(own, q_copy, wp, ip, h) == value
        assert counts() == (1, 2, 2, 2)  # a new posterior: rows and entropy
        assert dual_objective(own, q_copy, wp_copy, ip, h) == value
        assert counts() == (2, 2, 4, 2)  # a new score point: model and penalties
        # on a matrix that holds nothing each call computes everything
        assert dual_objective(lm, q, wp, ip, h) == value
        assert counts() == (3, 3, 6, 3)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_a_fit_computes_each_entropy_and_penalty_once(self, monkeypatch, mode):
        # one entropy per posterior (the starting one and one per E-step), and
        # the worker and item penalties once per score point the fit evaluates
        lm, h = planted_gamma_one(mode)
        penalties = counted_calls(monkeypatch, "regularizer_value")
        entropies = counted_calls(monkeypatch, "entropy")
        points, objective = [], solver.penalized_likelihood

        def probed(labels, posterior, wp, ip, hyper):
            if not any(wp is w and ip is i for w, i in points):
                points.append((wp, ip))
            return objective(labels, posterior, wp, ip, hyper)

        monkeypatch.setattr(solver, "penalized_likelihood", probed)
        r = fit(lm, h)
        assert len(entropies) == r.iterations + 1
        assert len(penalties) == 2 * len(points) and len(points) > r.iterations

    @pytest.mark.parametrize("mode", list(Mode))
    def test_a_fit_computes_each_value_once(self, monkeypatch, mode):
        # one penalized likelihood per (posterior, score point) the fit evaluates:
        # a trace entry reuses the accepted trial's value, and the M-step's
        # starting value the trace entry before it
        lm, h = planted_gamma_one(mode)
        values = counted_calls(monkeypatch, "_penalized")
        pairs, calls, value = [], [], solver._value

        def probed(labels, posterior, wp, ip, hyper):
            calls.append(1)
            if not any(q is posterior and w is wp and i is ip for q, w, i in pairs):
                pairs.append((posterior, wp, ip))
            return value(labels, posterior, wp, ip, hyper)

        monkeypatch.setattr(solver, "_value", probed)
        fit(lm, h)
        assert len(values) == len(pairs) < len(calls)

    @pytest.mark.parametrize("name", ["point", "posterior"])
    def test_old_value_is_dropped_before_a_new_build(self, monkeypatch, name):
        lm = fit_labels(synthetic.random_instance(9))
        wp, ip, q = random_state(lm, 10)
        h = HyperParams()
        # how to read the record's largest array, the builder a rebuild calls, and a rebuild
        read, builder, rebuild = {
            "point": (lambda: solver._model(lm, solver._point(lm, wp, ip, h), h, "prob"),
                      "_log_model",
                      lambda: solver._model(lm, solver._point(lm, wp + 1.0, ip, h), h, "prob")),
            "posterior": (lambda: solver._posterior(lm, q).rows, "gather_rows",
                          lambda: solver._posterior(lm, q[:, ::-1].copy())),
        }[name]
        alive = []
        build = getattr(solver, builder)

        def probed(*args):
            alive.append(old() is not None)
            return build(*args)

        old = weakref.ref(read())
        assert old() is not None  # the matrix holds it
        monkeypatch.setattr(solver, builder, probed)
        rebuild()
        assert alive == [False]

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_nothing_is_kept_on_the_callers_matrix(self, entry):
        # After any call the caller's matrix holds nothing, so a model or rows
        # computed after the scores and the posterior change in place are fresh.
        lm = synthetic.random_instance(5)
        wp, ip, q = random_state(lm, 6)
        h = HyperParams(alpha=0.7, beta=1.3, max_outer_iters=5)
        ENTRY_POINTS[entry](lm, q, wp, ip, h)
        assert not hasattr(lm, "held")
        wp[0, 0, 0] += 1.0
        ip[-1, 1, 0] -= 1.0
        q[0] = q[0, ::-1].copy()
        point, record = solver._point(lm, wp, ip, h), solver._posterior(lm, q)
        model = (solver._model(lm, point, h, half) for half in ("prob", "log_obs"))
        for got, want in zip(model, LOG_MODEL(lm, wp, ip, h.mode)):
            assert np.array_equal(got, want)
        assert point.penalties == solver._penalties(wp, ip, h) and point.value is None
        assert np.array_equal(record.rows, solver.gather_rows(lm.items, q))
        assert record.entropy == solver.entropy(q)

    @pytest.mark.parametrize("exact", [False, True])
    def test_fits_own_matrix_is_freed_when_it_returns(self, monkeypatch, exact):
        lm, h = planted_gamma_one(Mode.MULTICLASS)
        h.exact_m_step, h.max_outer_iters = exact, 3
        seen = fits_own_labels(monkeypatch)
        fit(lm, h)
        assert seen and all(ref() is None for ref, _ in seen)  # nothing outlives the fit
        assert not hasattr(lm, "held")

    def test_fits_own_matrix_is_freed_after_a_fit_that_raises(self, monkeypatch):
        lm, h = planted_gamma_one(Mode.MULTICLASS)
        held = []

        def interrupted(labels, *args):
            held.append((weakref.ref(labels), set(labels.held)))
            raise KeyboardInterrupt

        monkeypatch.setattr(solver, "e_step", interrupted)
        with pytest.raises(KeyboardInterrupt):
            fit(lm, h)
        [(own, keys)] = held
        assert keys == {"point", "posterior"}  # the fit's matrix held its records when it stopped
        assert own() is None and not hasattr(lm, "held")

    @pytest.mark.parametrize("mode", list(Mode))
    def test_fits_matrix_holds_only_values_of_its_inputs(self, monkeypatch, mode):
        # nothing derived from the labels alone is kept between passes: every
        # held value belongs to the point record or the posterior record
        lm, h = planted_gamma_one(mode)
        seen = fits_own_labels(monkeypatch)
        r = fit(lm, h)
        keys = {"point", "posterior"}
        assert [keys for _, keys in seen] == [keys] * r.iterations

    @pytest.mark.parametrize("mode", list(Mode))
    def test_exact_m_step_runs_with_no_model_held(self, monkeypatch, mode):
        # L-BFGS makes its own model passes, so the fit frees the pre-step point
        held = []
        lbfgs = solver._lbfgs

        def probed(labels, *args):
            held.append(labels.held.get("point"))  # the fit's own matrix
            return lbfgs(labels, *args)

        monkeypatch.setattr(solver, "_lbfgs", probed)
        r = fit(synthetic.random_instance(3),
                HyperParams(alpha=0.5, beta=0.5, mode=mode, max_outer_iters=3,
                            exact_m_step=True))
        assert held == [None] * r.iterations and r.iterations > 0

    @pytest.mark.parametrize("exact", [False, True])
    def test_a_fit_paused_while_another_runs_makes_its_own_passes(self, monkeypatch,
                                                                  exact):
        # Fit A stops in its second model pass while this thread runs fit B
        # through; A then goes on as if alone, with the passes and outputs of
        # a run on its own.
        h = HyperParams(alpha=0.5, beta=0.5, max_outer_iters=20, exact_m_step=exact)
        first, second = synthetic.random_instance(3), synthetic.random_instance(4)
        alone = fit(first, h)
        passes = counted_model_passes(monkeypatch)
        fit(first, h)
        alone_passes, passes[:] = len(passes), []
        by_thread, paused, resume = {}, threading.Event(), threading.Event()
        model, caller = solver._log_model, threading.get_ident()

        def paused_model(*args):
            me = threading.get_ident()
            by_thread[me] = by_thread.get(me, 0) + 1
            if me != caller and by_thread[me] == 2:
                paused.set()
                assert resume.wait(60)
            return model(*args)

        monkeypatch.setattr(solver, "_log_model", paused_model)
        results = []
        thread = threading.Thread(target=lambda: results.append(fit(first, h)))
        thread.start()
        try:
            assert paused.wait(60)
            fit(second, h)
        finally:
            resume.set()
            thread.join(60)
        assert not thread.is_alive()
        [paused_fit] = results
        assert by_thread[thread.ident] == alone_passes
        for field in ("posterior", "worker_params", "item_params", "objective_trace"):
            assert np.array_equal(getattr(paused_fit, field), getattr(alone, field))
        assert paused_fit.iterations == alone.iterations


    def test_fits_in_several_threads_equal_serial_fits(self):
        # more threads than cores, switching often, so that fits interleave
        # inside their model passes; each must still equal its serial run
        h = HyperParams(alpha=9.0, beta=9.0)
        conf = np.stack([synthetic.diagonal_confusion(3, 0.7)] * 10)
        inputs = [synthetic.sample_labels(10, 60, 3, 5, conf, seed)[0] for seed in range(4)]
        serial = [fit(lm, h) for lm in inputs]
        outcomes = [[] for _ in inputs]

        def run(k):
            for _ in range(10):
                try:
                    outcomes[k].append(fit(inputs[k], h).posterior)
                except Exception as exc:
                    outcomes[k].append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in range(len(inputs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for runs, alone in zip(outcomes, serial):
            assert len(runs) == 10
            assert all(isinstance(q, np.ndarray) and np.array_equal(q, alone.posterior)
                       for q in runs)


def counted_row_gathers(monkeypatch):
    """A list that gains one entry per posterior gather from now on (score
    tables are 3-d, posteriors 2-d)."""
    calls = []
    gather = solver.gather_rows

    def counted(index, table):
        if table.ndim == 2:
            calls.append(1)
        return gather(index, table)

    monkeypatch.setattr(solver, "gather_rows", counted)
    return calls


class TestFixedInputs:
    """The posterior rows held on a fit's own matrix."""

    def test_rows_are_kept_across_score_points(self, monkeypatch):
        calls = counted_row_gathers(monkeypatch)
        lm = synthetic.random_instance(11)
        wp, ip, q = random_state(lm, 12)
        h = HyperParams(alpha=0.7, beta=1.3)
        own = fit_labels(lm)
        penalized_likelihood(own, q, wp, ip, h)
        grads = m_step_gradients(own, q, wp + 1.0, ip, h)
        value = penalized_likelihood(own, q, wp, ip - 1.0, h)
        solver._curvature_bound(own, q, h)
        assert len(calls) == 1
        assert not solver._posterior(own, q).rows.flags.writeable
        # on a matrix that holds nothing each call gathers its own rows, to the same values
        for got, want in zip(grads, m_step_gradients(lm, q, wp + 1.0, ip, h)):
            assert np.array_equal(got, want)
        assert value == penalized_likelihood(lm, q, wp, ip - 1.0, h)
        assert len(calls) == 3

    @pytest.mark.parametrize("fn", [penalized_likelihood, dual_objective, m_step_gradients])
    @pytest.mark.parametrize("wrong", [lambda q: q[:, :1], lambda q: np.vstack([q, q[:3]])],
                             ids=["one class", "three more items"])
    def test_posterior_of_the_wrong_shape_is_refused(self, fn, wrong):
        lm = fit_labels(synthetic.random_instance(3))
        wp, ip, q = random_state(lm, 3)
        fn(lm, q, wp, ip, HyperParams())  # the right shape is held first
        with pytest.raises(ValueError, match="^posterior shape does not match"):
            fn(lm, wrong(q), wp, ip, HyperParams())

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("exact", [False, True])
    def test_one_row_gather_per_posterior_in_a_fit(self, monkeypatch, mode, exact):
        # a fit evaluates its starting posterior and one more per E-step
        calls = counted_row_gathers(monkeypatch)
        lm, h = planted_gamma_one(mode)
        if exact:
            h.exact_m_step, h.max_outer_iters = True, 6  # L-BFGS M-steps are slow
        r = fit(lm, h)
        assert len(calls) == r.iterations + 1


def counted_evaluations(monkeypatch):
    """A list that gains, per L-BFGS evaluation from now on, the label matrix
    that evaluation receives."""
    seen = []
    value_and_grad = solver._value_and_grad

    def counted(x, labels, *args):
        seen.append(labels)
        return value_and_grad(x, labels, *args)

    monkeypatch.setattr(solver, "_value_and_grad", counted)
    return seen


class TestOwnModelPasses:
    """Outside `fit`, the L-BFGS paths and the KL check make one model pass per
    evaluation by themselves, on the caller's matrix, which holds nothing."""

    @pytest.mark.parametrize("mode", list(Mode))
    def test_direct_exact_m_step_makes_one_pass_per_evaluation(self, monkeypatch, mode):
        lm = synthetic.random_instance(2)
        wp, ip, q = random_state(lm, 3, mode=mode)
        passes, seen = counted_model_passes(monkeypatch), counted_evaluations(monkeypatch)
        solver.m_step_exact(lm, q, wp, ip, HyperParams(alpha=0.5, beta=0.5, mode=mode))
        assert len(seen) > 1 and len(passes) == len(seen)
        assert all(labels is lm for labels in seen) and not hasattr(lm, "held")

    def test_polish_makes_one_pass_per_evaluation_on_the_callers_matrix(self, monkeypatch):
        # acceptance 5's first input
        conf = np.array([synthetic.diagonal_confusion(2, 0.7)] * 8)
        lm, _ = synthetic.sample_labels(8, 16, 2, 8, conf, 0)
        h = HyperParams(alpha=0.0, beta=0.0, max_outer_iters=300, tol=1e-10)
        r = fit(lm, h)
        passes, seen = counted_model_passes(monkeypatch), counted_evaluations(monkeypatch)
        polish_stationary_point(lm, r, h)
        assert len(seen) > 3 and len(passes) == len(seen)
        assert all(labels is lm for labels in seen) and not hasattr(lm, "held")

    def test_kl_check_makes_one_pass_and_one_posterior_gather(self, monkeypatch):
        lm = synthetic.random_instance(23)
        wp, ip, q = random_state(lm, 24)
        passes, gathers = counted_model_passes(monkeypatch), counted_row_gathers(monkeypatch)
        kl_identity_check(lm, FitResult(q, wp, ip, [], False, 0), HyperParams())
        assert (len(passes), len(gathers)) == (1, 1)


def plain_log_model(labels, worker_params, item_params, mode):
    """The labeling model in its plainest form, observation-major: logits
    z[l, c, k] = W[w_l, c, k] + I[i_l, c, k] (ordinal scores expanded first),
    prob = softmax(z) over k and log_obs = z[x_l] - logsumexp(z)."""
    if mode == Mode.ORDINAL:
        worker_params = expand_ordinal(worker_params, labels.num_classes)
        item_params = expand_ordinal(item_params, labels.num_classes)
    z = worker_params[labels.workers] + item_params[labels.items]
    log_obs = z[np.arange(labels.num_labels), :, labels.labels] - logsumexp(z, axis=2)
    return softmax(z, axis=2), log_obs


def column_scatter(index, values, size):
    """The plainest scatter: out[index[l]] += values[l], one np.bincount per
    column of (L, ...) values, each summed in observation order from 0."""
    tail = values.shape[1:]
    columns = values.reshape(len(values), int(np.prod(tail)))
    out = np.empty((size, columns.shape[1]))
    for j in range(columns.shape[1]):
        out[:, j] = np.bincount(index, weights=columns[:, j], minlength=size)
    return out.reshape((size, *tail))


def kernel_scores(lm, mode, scale, rng):
    """Worker and item scores: normal with the given scale, or (scale=None)
    +-800 with a little noise, far past exp's range."""
    shapes = [init_params(mode, n, lm.num_classes).shape for n in (lm.num_workers, lm.num_items)]
    if scale is None:
        return [800.0 * rng.choice([-1.0, 1.0], size=s) + rng.normal(size=s) for s in shapes]
    return [rng.normal(scale=scale, size=s) for s in shapes]


def kernel_cases(scale):
    """Random instances with `kernel_scores` and a posterior for both modes."""
    for seed in range(12):
        lm = synthetic.random_instance(seed, max_workers=6, max_items=9)
        for mode in Mode:
            rng = np.random.default_rng(seed + 100)
            wp, ip = kernel_scores(lm, mode, scale, rng)
            q = rng.random((lm.num_items, lm.num_classes))
            q /= q.sum(axis=1, keepdims=True)
            yield lm, mode, wp, ip, q


class TestClassMajorKernel:
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=["1-d", "2-d", "3-d"])
    def test_scatter_rows_is_bit_equal_to_column_scatter(self, lead):
        # runs of one repeated index, slots 3 and 9 never observed, and weights
        # with -0.0 (alone in slot 4), subnormals and their sums
        rng = np.random.default_rng(len(lead))
        index = np.concatenate([[0, 0, 0, 5, 5, 4, 4], rng.choice([0, 1, 2, 5, 6, 7, 8], 33),
                                [1, 1, 1, 1]])
        size, L = 10, len(index)
        rows = rng.normal(size=(*lead, L))
        flat = rows.reshape(-1, L)
        flat[:, [5, 6]] = -0.0
        flat[:, 7:15] = rng.choice([5e-324, -5e-324, 1e-310, -2.2e-308, 0.0, -0.0],
                                   size=(len(flat), 8))
        flat[:, -4:] = [1e-320, -1e-320, 3e-321, -0.0]
        got = solver.scatter_rows(index, rows, size)
        want = column_scatter(index, np.moveaxis(rows, -1, 0), size)
        assert got.shape == (size, *lead) and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()  # every bit, the sign of zero too
        assert not np.signbit(got[4]).any() and not got[[3, 9]].any()
        # into one strided class of a larger table, as the gradient scatters:
        # its NaN are overwritten, not added to, and the class beside it kept
        table = np.full((size, 2, *lead), np.nan)
        view = table[:, 1]
        assert solver.scatter_rows(index, rows, size, out=view) is view
        assert view.tobytes() == want.tobytes() and np.isnan(table[:, 0]).all()

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("K", range(2, 7))
    def test_zero_start_model_is_the_pass_at_zero_scores(self, mode, K):
        conf = np.stack([synthetic.diagonal_confusion(K, 0.7)] * 6)
        lm, _ = synthetic.sample_labels(6, 20, K, 3, conf, seed=K)
        wp, ip = (init_params(mode, n, K) for n in (lm.num_workers, lm.num_items))
        got = solver._uniform_model(K, lm.num_labels)
        for g, want in zip(got, LOG_MODEL(lm, wp, ip, mode)):
            assert g.shape == want.shape and np.array_equal(g, want)
            with pytest.raises(ValueError, match="read-only"):
                g[(0,) * g.ndim] = 0.5

    @pytest.mark.parametrize("mode", list(Mode))
    def test_touch_matrix_is_built_once_per_mode_and_class_count(self, mode):
        for K in (2, 3, 5):
            rows, shape = solver._touch_rows(mode, K)
            assert solver._touch_rows(mode, K)[0] is rows
            assert rows.shape == (K, int(np.prod(shape)))
            assert shape == init_params(mode, 1, K).shape[1:]
            with pytest.raises(ValueError, match="read-only"):
                rows[0, 0] = 2.0

    @pytest.mark.parametrize("K", range(2, 8))
    @pytest.mark.parametrize("scale", [2.0, None])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_softmax_in_place_is_the_textbook_softmax(self, K, scale, axis):
        # scale None: +-800 with a little noise, far past exp's range. The
        # other axes keep their order: swapping axes 0 and 2 would transpose
        # the normalizer of a 3-d array softmaxed along axis 2.
        rng = np.random.default_rng(K)
        for shape in {0: [(K, 40), (K, 4, 5), (K, 7)], 1: [(40, K), (K, K, 40), (3, K, 5), (3, K)],
                      2: [(3, 4, K)]}[axis]:
            if scale is None:
                a = 800.0 * rng.choice([-1.0, 1.0], size=shape) + rng.normal(size=shape)
            else:
                a = rng.normal(scale=scale, size=shape)
            got = a.copy()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                log_norm = solver.softmax_in_place(got, axis)
            assert np.array_equal(log_norm, logsumexp(a, axis))
            assert np.array_equal(got, softmax(a, axis))
            np.testing.assert_allclose(got.sum(axis=axis), 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("scale", [2.0, None])
    def test_log_model_is_bit_equal_to_the_plain_model(self, scale):
        # The kernel cases fit in one softmax block; the sampled case spans
        # three, the last one short.
        conf = np.stack([synthetic.diagonal_confusion(3, 0.7)] * 40)
        blocked, _ = synthetic.sample_labels(40, 3400, 3, 5, conf, seed=0)
        assert 2 * solver.SOFTMAX_BLOCK < blocked.num_labels < 2.5 * solver.SOFTMAX_BLOCK
        cases = [(lm, mode, wp, ip) for lm, mode, wp, ip, _ in kernel_cases(scale)]
        cases += [(blocked, mode, *kernel_scores(blocked, mode, scale, np.random.default_rng(7)))
                  for mode in Mode]
        for lm, mode, wp, ip in cases:
            K, L = lm.num_classes, lm.num_labels
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                prob, log_obs = LOG_MODEL(lm, wp, ip, mode)
            assert prob.shape == (K, K, L) and log_obs.shape == (K, L)
            assert prob.flags.c_contiguous and log_obs.flags.c_contiguous
            want_prob, want_obs = plain_log_model(lm, wp, ip, mode)
            assert prob.tobytes() == np.moveaxis(want_prob, 0, -1).tobytes()
            assert log_obs.tobytes() == want_obs.T.tobytes()
            np.testing.assert_allclose(prob.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("K", range(2, 7))
    def test_gradient_is_bit_equal_to_column_scatter_of_the_full_table(self, mode, K):
        # The plain (K, K, L) table Q(c) * [I(x = k) - P(k | c)], summed per
        # column in observation order, pins the gradient's summation order to
        # the bit, however the solver builds it. Besides a sampled instance,
        # the kernel cases of this mode and K: unlabeled pairs, K = 2..4.
        conf = np.stack([synthetic.diagonal_confusion(K, 0.7)] * 6)
        lm, _ = synthetic.sample_labels(6, 20, K, 3, conf, seed=K)
        cases = [(lm, *random_state(lm, K, mode=mode, scale=2.0))]
        cases += [(lm, wp, ip, q) for lm, m, wp, ip, q in kernel_cases(1.0)
                  if m == mode and lm.num_classes == K]
        for lm, wp, ip, q in cases:
            prob, _ = plain_log_model(lm, wp, ip, mode)
            table = (np.eye(K)[lm.labels][:, None, :] - prob) * q[lm.items][:, :, None]
            want = [column_scatter(index, table, size) for index, size in
                    ((lm.workers, lm.num_workers), (lm.items, lm.num_items))]
            if mode == Mode.ORDINAL:
                want = [project_ordinal(g, K) for g in want]
            want[0] -= 0.7 * wp
            want[1] -= 1.3 * ip
            got = m_step_gradients(lm, q, wp, ip, HyperParams(alpha=0.7, beta=1.3, mode=mode))
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.flags.c_contiguous
                assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("scale", [2.0, None])
    def test_e_step_is_bit_identical_to_column_scatter(self, scale):
        for lm, mode, wp, ip, _ in kernel_cases(scale):
            _, log_obs = plain_log_model(lm, wp, ip, mode)
            log_q = column_scatter(lm.items, log_obs, lm.num_items)
            got = e_step(lm, wp, ip, HyperParams(mode=mode))
            assert got.flags.c_contiguous
            assert np.array_equal(got, softmax(log_q, axis=1))

    def test_curvature_bound_is_bit_identical_to_column_scatter(self):
        # Each score's bound sums the scattered 1/4 Q of the true-class rows it
        # touches: its own row c for a multiclass cell (c, k), and the rows on
        # its side of the threshold for an ordinal score.
        cases = [(lm, q, mode) for lm, mode, _, _, q in kernel_cases(1.0)]
        cases += [(*planted_with_posterior(K), mode) for K in range(2, 7) for mode in Mode]
        for lm, q, mode in cases:
            h = HyperParams(alpha=0.7, beta=1.3, mode=mode)
            K = lm.num_classes
            mass = 0.25 * np.take(q, lm.items, axis=0)
            if mode == Mode.ORDINAL:
                touches = ordinal_basis(K).any(axis=-1)  # [s, r, c]
            else:
                touches = np.repeat(np.eye(K, dtype=bool)[:, None, :], K, axis=1)  # [c, k, c']
            rows = touches.reshape(-1, K).T.astype(float)
            for got, index, size, ridge in zip(
                    solver._curvature_bound(lm, q, h),
                    (lm.workers, lm.items), (lm.num_workers, lm.num_items), (0.7, 1.3)):
                want = column_scatter(index, mass, size) @ rows + ridge
                assert np.array_equal(got, want.reshape(size, *touches.shape[:2]))

    def test_dawid_skene_is_bit_identical_to_column_scatter(self):
        for lm, _, _, _, q in kernel_cases(1.0):
            m, K = lm.num_workers, lm.num_classes
            counts = column_scatter(lm.workers * K + lm.labels, q[lm.items], m * K)
            counts = counts.reshape(m, K, K).transpose(0, 2, 1) + 0.01
            confusion, prior = _ds_m_step(lm, q, 0.01, uniform_prior=False)
            totals = counts.sum(axis=2, keepdims=True)
            assert np.array_equal(confusion, counts / totals)
            log_p = np.log(np.maximum(confusion, solver.PROB_FLOOR))
            acc = column_scatter(lm.items, log_p[lm.workers, :, lm.labels], lm.num_items)
            acc += np.log(np.maximum(prior, solver.PROB_FLOOR))
            got = _ds_log_joint(lm, confusion, prior)
            assert got.flags.c_contiguous
            assert np.array_equal(got, acc)


class TestSharedModel:
    @pytest.mark.parametrize("mode", list(Mode))
    def test_fit_equals_reference_loop(self, mode):
        h = HyperParams(alpha=0.5, beta=0.5, mode=mode, max_outer_iters=30)
        for seed in range(30):
            assert_fit_equals_reference(synthetic.random_instance(seed), h)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_fit_equals_reference_loop_planted_k5(self, mode):
        conf = np.stack([synthetic.diagonal_confusion(5, 0.7)] * 30)
        lm, _ = synthetic.sample_labels(30, 200, 5, 5, conf, seed=1)
        alpha, beta = resolve_hyperparams(1.0, lm)
        assert_fit_equals_reference(
            lm, HyperParams(alpha=alpha, beta=beta, mode=mode, max_outer_iters=40))

    @pytest.mark.parametrize("mode", list(Mode))
    def test_fit_whose_first_m_step_takes_no_step_equals_reference_loop(
            self, monkeypatch, mode):
        # The first E-step then reads the all-zero start's uniform model, which
        # the fit holds as read-only broadcast views and the reference computes.
        lm, h = planted_gamma_one(mode)
        read_only, step = [], solver.e_step

        def probed(labels, *args):
            read_only.append(not labels.held["point"].log_obs.flags.writeable)
            return step(labels, *args)

        monkeypatch.setattr(solver, "m_step", step_not_taken(m_step))
        monkeypatch.setattr(solver, "e_step", probed)
        r = fit(lm, h)
        monkeypatch.setattr(solver, "m_step", step_not_taken(m_step))
        posterior, wp, ip, trace = reference_fit(lm, h)  # calls e_step unprobed
        assert read_only[:2] == [True, False] and r.iterations > 2
        assert np.array_equal(r.posterior, posterior)
        assert np.array_equal(r.worker_params, wp) and np.array_equal(r.item_params, ip)
        assert np.array_equal(r.objective_trace, trace)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_a_kept_point_makes_its_released_model_again(self, monkeypatch, mode):
        # A fit lets log_obs go after the trace that follows each E-step, as
        # the next M-step reads only prob. When the second M-step keeps its
        # scores, the E-step after it finds log_obs gone and makes that
        # point's pass again: one pass more than the first M-step's trials, and
        # the outputs of the reference loop, which stops there as nothing moved.
        lm, h = planted_gamma_one(mode)
        counts = count_line_search(monkeypatch)
        monkeypatch.setattr(solver, "m_step", step_not_taken(solver.m_step, call=2))
        r = fit(lm, h)
        assert r.iterations == 2 and counts["m_step"] == 1
        assert counts["model"] == counts["objective"] - counts["m_step"] + 1
        monkeypatch.undo()
        monkeypatch.setattr(solver, "m_step", step_not_taken(m_step, call=2))
        posterior, wp, ip, trace = reference_fit(lm, h)
        assert np.array_equal(r.posterior, posterior)
        assert np.array_equal(r.worker_params, wp) and np.array_equal(r.item_params, ip)
        assert np.array_equal(r.objective_trace, trace)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_exact_m_step_fit_equals_reference_loop(self, mode):
        h = HyperParams(alpha=0.5, beta=0.5, mode=mode, max_outer_iters=10,
                        exact_m_step=True)
        for seed in range(5):
            assert_fit_equals_reference(synthetic.random_instance(seed), h)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_lbfgs_objective_is_the_m_step_pair(self, mode):
        # the L-BFGS paths negate exactly what m_step ascends and follows
        h = HyperParams(alpha=0.7, beta=1.3, mode=mode)
        for seed in range(10):
            lm = synthetic.random_instance(seed)
            wp, ip, q = random_state(lm, seed + 60, mode=mode)
            x = np.concatenate([wp.ravel(), ip.ravel()])
            rows = solver.gather_rows(lm.items, q)
            value, grad = solver._value_and_grad(x, lm, rows, h, wp.shape, ip.shape)
            gw, gi = m_step_gradients(lm, q, wp, ip, h)
            assert value == -penalized_likelihood(lm, q, wp, ip, h)
            assert np.array_equal(grad, -np.concatenate([gw.ravel(), gi.ravel()]))


class TestDualObjective:
    def test_uniform_closed_form(self, three_worker_labels):
        lm = three_worker_labels
        K, n, L = 3, 6, 18
        h = HyperParams(alpha=2.0, beta=2.0)
        val = dual_objective(lm, np.full((n, K), 1 / K),
                             np.zeros((3, K, K)), np.zeros((n, K, K)), h)
        assert val == pytest.approx(L * np.log(1 / K) + n * np.log(K))

    def test_deterministic_posterior_is_complete_loglik(self, three_worker_labels,
                                                        three_worker_posterior):
        lm = three_worker_labels
        wp, ip, _ = random_state(lm, 9)
        h = HyperParams(alpha=0.0, beta=0.0)
        val = dual_objective(lm, three_worker_posterior, wp, ip, h)
        # complete log-likelihood: sum of log P(x_l | truth) over observations
        from mmce.solver import _log_model
        _, log_obs = _log_model(lm, wp, ip, Mode.MULTICLASS)
        truth = np.argmax(three_worker_posterior, axis=1)
        expected = sum(log_obs[truth[lm.items[l]], l] for l in range(lm.num_labels))
        assert val == pytest.approx(expected)

    def test_matches_term_by_term_summation(self):
        lm = synthetic.random_instance(13)
        wp, ip, q = random_state(lm, 14)
        h = HyperParams(alpha=0.7, beta=1.3)
        from mmce.solver import _log_model
        _, log_obs = _log_model(lm, wp, ip, Mode.MULTICLASS)
        data = 0.0
        for l in range(lm.num_labels):
            for c in range(lm.num_classes):
                data += q[lm.items[l], c] * log_obs[c, l]
        hy = -sum(q[j, c] * np.log(q[j, c]) for j in range(lm.num_items)
                  for c in range(lm.num_classes) if q[j, c] > 0)
        pen = 0.35 * np.sum(wp ** 2) + 0.65 * np.sum(ip ** 2)
        assert dual_objective(lm, q, wp, ip, h) == pytest.approx(data + hy - pen)

    def test_entropy_zero_log_zero(self):
        assert entropy(np.array([[1.0, 0.0]])) == 0.0

    def test_entropy_is_bit_equal_to_the_masked_form(self):
        # at q = 0 the floored log gives 0 * log(1e-300) = -0.0, which adds
        # nothing to the sum, so no mask is needed; the sign bit agrees too
        def masked(q):
            return float(-np.sum(np.where(q > 0, q * np.log(np.maximum(q, 1e-300)), 0.0)))

        rng = np.random.default_rng(0)
        for trial in range(300):
            n, K = int(rng.integers(1, 300)), int(rng.integers(2, 7))
            if trial % 10 == 0:  # one-hot rows: every term is +0.0 or -0.0
                q = np.eye(K)[rng.integers(K, size=n)]
            else:
                q = rng.dirichlet(np.ones(K), size=n)
                q[rng.random((n, K)) < 0.3] = 0.0
                q[q.sum(axis=1) == 0, 0] = 1.0
                q /= q.sum(axis=1, keepdims=True)
            assert np.float64(entropy(q)).tobytes() == np.float64(masked(q)).tobytes()

    @staticmethod
    def relabeled(seed, variant):
        """The dual before and after one shift of the true-class axis c of both
        score tensors and of the posterior's columns."""
        lm = synthetic.random_instance(seed)
        wp, ip, q = random_state(lm, seed + 1)
        h = HyperParams(alpha=0.7, beta=0.4, variant=variant)
        perm = np.roll(np.arange(lm.num_classes), 1)
        return (dual_objective(lm, q, wp, ip, h),
                dual_objective(lm, q[:, perm], wp[:, perm], ip[:, perm], h))

    def test_euclidean_dual_is_invariant_under_relabeling_the_true_class(self):
        for seed in range(30):
            before, after = self.relabeled(seed, RegularizerVariant.EUCLIDEAN)
            assert after == pytest.approx(before, rel=1e-9, abs=0)

    def test_centered_dual_is_not_invariant_under_relabeling_the_true_class(self):
        # with K = 3 (seed 0) the shift mixes diagonal and off-diagonal scores,
        # which the centered penalty's two group means tell apart
        before, after = self.relabeled(0, RegularizerVariant.CENTERED)
        assert abs(after - before) > 1e-3 * abs(before)


class TestFit:
    def test_single_perfect_worker(self):
        truth = [0, 1, 1, 0, 1]
        lm = from_triples([("w", f"i{j}", t) for j, t in enumerate(truth)], 2)
        # with a single worker the item scores can absorb the whole signal, so
        # penalize them heavily relative to the worker scores
        r = fit(lm, HyperParams(alpha=0.1, beta=100.0, max_outer_iters=500, tol=1e-10))
        assert r.predicted.tolist() == truth

    def test_trace_non_decreasing(self):
        for seed in range(30):
            lm = synthetic.random_instance(seed)
            r = fit(lm, HyperParams(alpha=0.5, beta=0.5, max_outer_iters=30))
            t = np.array(r.objective_trace)
            assert np.all(np.diff(t) >= -1e-9)

    def test_deterministic(self):
        lm = synthetic.random_instance(17)
        h = HyperParams(alpha=0.3, beta=0.3)
        r1, r2 = fit(lm, h), fit(lm, h)
        assert r1.objective_trace == r2.objective_trace
        np.testing.assert_array_equal(r1.posterior, r2.posterior)

    def test_empty_labels_rejected(self):
        lm = from_triples([("w", "i", 0)], 2).subset(np.zeros(1, dtype=bool))
        with pytest.raises(ValueError, match="empty"):
            fit(lm, HyperParams())

    def test_posterior_rows_normalized(self):
        lm = synthetic.random_instance(21)
        r = fit(lm, HyperParams(alpha=0.5, beta=0.5))
        np.testing.assert_allclose(r.posterior.sum(axis=1), 1.0, atol=1e-12)


def dense_two_coin(seed, index):
    """A dense binary 39 x 108 instance shaped like the select-cv benchmark
    inputs: sensitivities and specificities evenly spaced over 0.6-0.95, each
    list assigned to the workers in a seeded order. Returns (labels, truth)."""
    rng = np.random.default_rng([seed, index])
    spaced = 0.6 + 0.35 * (np.arange(39) + 0.5) / 39
    sens, spec = rng.permutation(spaced), rng.permutation(spaced)
    conf = np.stack([[[sp, 1 - sp], [1 - sn, sn]] for sn, sp in zip(sens, spec)])
    lm, gold = synthetic.sample_labels(39, 108, 2, 39, conf,
                                       seed=int(rng.integers(2 ** 32)))
    return lm, np.array(list(gold.by_item.values()))


class TestBasin:
    @pytest.mark.parametrize("gamma", [0.25, 0.5, 1.0])
    def test_default_fits_keep_the_vote_count_labelling(self, gamma):
        # The Euclidean objective is symmetric under swapping the true classes,
        # so a fit whose path crosses over lands on the mirrored labelling and
        # errs 100% at the same objective. Measured over these 18 fits: one
        # ascent step per M-step, each trial on the optimal worker/item split,
        # errs at most 1.9% (mean 0.15%) in at most 14 iterations (35 without
        # the split); five steps at most 4.6%; two steps mirror 4 of the 6 fits
        # at gamma = 1.
        for seed in (101, 102, 103):
            for index in (0, 1):
                lm, truth = dense_two_coin(seed, index)
                alpha, beta = resolve_hyperparams(gamma, lm)
                r = fit(lm, HyperParams(alpha=alpha, beta=beta))
                error = np.mean(r.predicted != truth)
                assert r.converged and error < 0.1, (seed, index, error)


class TestRidgeSplit:
    """Worker and item scores enter the model only through their sum, so the
    split (sigma_w + t, tau_j - t) moves the penalty alone, and every M-step
    trial sits at the penalty's optimum along it."""

    @pytest.mark.parametrize("mode", list(Mode))
    def test_the_split_leaves_the_model_unchanged(self, mode):
        for seed in range(10):
            lm = synthetic.random_instance(seed)
            wp, ip, _ = random_state(lm, seed + 50, mode=mode)
            t = np.random.default_rng(seed).normal(scale=2.0, size=wp.shape[1:])
            for got, want in zip(solver._log_model(lm, wp + t, ip - t, mode),
                                 solver._log_model(lm, wp, ip, mode)):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode,variant", [
        (Mode.MULTICLASS, RegularizerVariant.EUCLIDEAN),
        (Mode.ORDINAL, RegularizerVariant.EUCLIDEAN),
        (Mode.MULTICLASS, RegularizerVariant.CENTERED)])
    def test_m_step_lands_on_the_optimal_split(self, mode, variant):
        # The penalty's derivative along the split of one score, the worker
        # ridge's pull summed over workers minus the item ridge's summed over
        # items, vanishes after a step from a random start.
        h = HyperParams(alpha=0.7, beta=1.3, mode=mode, variant=variant)
        for seed in range(10):
            lm = synthetic.random_instance(seed)
            wp, ip, q = random_state(lm, seed + 60, mode=mode)
            w2, i2, failed = m_step(lm, q, wp, ip, h)
            assert not failed
            pulls = (regularizer_gradient(w2, variant, h.alpha),
                     regularizer_gradient(i2, RegularizerVariant.EUCLIDEAN, h.beta))
            residual = np.abs(pulls[0].sum(axis=0) - pulls[1].sum(axis=0))
            scale = sum(np.abs(pull).sum(axis=0) for pull in pulls)
            assert np.all(residual <= 1e-12 * scale)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_no_shift_with_clamped_items_or_without_a_penalty(self, mode):
        # Clamped item scores stay at 0 through a whole fit, with one-step or
        # exact M-steps alike. At alpha = beta = 0 nothing sets the split, and the
        # step is a plain one along d = g / b.
        for seed in range(10):
            lm = synthetic.random_instance(seed)
            for exact in (False, True):
                clamped = HyperParams(alpha=0.7, beta=1.3, mode=mode,
                                      clamp_item_params=True, exact_m_step=exact)
                assert not np.any(fit(lm, clamped).item_params)
            h = HyperParams(alpha=0.0, beta=0.0, mode=mode)
            wp, ip, q = random_state(lm, seed + 70, mode=mode)
            moved = np.concatenate([x.ravel() for x in m_step(lm, q, wp, ip, h)[:2]])
            moved -= np.concatenate([wp.ravel(), ip.ravel()])
            grads = m_step_gradients(lm, q, wp, ip, h)
            d = np.concatenate([np.divide(g, b, out=np.zeros_like(g), where=b > 0).ravel()
                                for g, b in zip(grads, solver._curvature_bound(lm, q, h))])
            size = (moved @ d) / (d @ d)
            assert size > 0
            np.testing.assert_allclose(moved, size * d, rtol=0,
                                       atol=1e-13 * np.abs(size * d).max())

    @pytest.mark.parametrize("variant", list(RegularizerVariant))
    @pytest.mark.parametrize("alpha,beta", [(2.0, 0.7), (0.0, 1.3), (1.5, 0.0)])
    def test_closed_form_is_the_least_norm_penalty_minimizer(self, variant, alpha, beta):
        # The penalty is quadratic in t, so central differences with unit steps
        # give its gradient and Hessian at t = 0 up to rounding, and the
        # least-norm Newton point is the minimizer (the centered ridge at
        # beta = 0 leaves the diagonal and off-diagonal means of t free).
        h = HyperParams(alpha=alpha, beta=beta, variant=variant)
        for seed in range(5):
            lm = synthetic.random_instance(seed)
            wp, ip, _ = random_state(lm, seed + 90, scale=1.0)
            shape = wp.shape[1:]

            def f(t):  # the penalty at (sigma_w + t, tau_j - t)
                t = t.reshape(shape)
                return (regularizer_value(wp + t, variant, alpha)
                        + regularizer_value(ip - t, RegularizerVariant.EUCLIDEAN, beta))

            unit = np.eye(int(np.prod(shape)))
            grad = np.array([(f(a) - f(-a)) / 2 for a in unit])
            hess = np.array([[(f(a + b) - f(a - b) - f(b - a) + f(-a - b)) / 4
                              for b in unit] for a in unit])
            want = np.linalg.lstsq(hess, -grad, rcond=1e-9)[0]
            got = np.ravel(solver._ridge_split(wp, ip, h))
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=1e-13 * max(1, np.abs(want).max()))

    def test_dense_fits_at_small_gamma_take_few_outer_iterations(self):
        # TestBasin's six inputs at gamma = 0.25. A step along d = g / b relaxes
        # the split by a few percent per outer iteration (curvature there is the
        # ridge alone, far below b): 35 iterations each. Set exactly: 12-14.
        for seed in (101, 102, 103):
            for index in (0, 1):
                lm, _ = dense_two_coin(seed, index)
                alpha, beta = resolve_hyperparams(0.25, lm)
                r = fit(lm, HyperParams(alpha=alpha, beta=beta))
                assert r.converged and r.iterations <= 20, (seed, index, r.iterations)

    def test_default_cv_fold_fits_take_few_outer_iterations(self):
        # The 25 fold fits of select's default 5 x 5 grid on one select-cv-shaped
        # input, split and resolved as cross_validate does: 380 outer iterations
        # in all with plain steps, 221 with each trial on the optimal split.
        lm, _ = dense_two_coin(101, 0)
        config = CVConfig()
        assignment = partition_folds(lm.num_labels, config.folds, config.seed)
        iterations = 0
        for gamma in config.gamma_grid:
            hyper = config.hyper(*resolve_hyperparams(gamma, lm))
            for f in range(config.folds):
                r = fit(lm.subset(assignment != f), hyper)
                assert r.converged
                iterations += r.iterations
        assert iterations <= 300


class TestKlIdentity:
    def test_small_residual_after_convergence(self):
        conf = np.array([synthetic.diagonal_confusion(2, 0.7)] * 8)
        labels, _ = synthetic.sample_labels(8, 16, 2, 8, conf, 0)
        h = HyperParams(alpha=0.0, beta=0.0, max_outer_iters=300, tol=1e-10)
        r = fit(labels, h)
        polished = polish_stationary_point(labels, r, h)
        assert kl_identity_check(labels, polished, h) < 1e-6

    def test_polish_keeps_the_fit_record(self):
        conf = np.array([synthetic.diagonal_confusion(2, 0.7)] * 4)
        lm, _ = synthetic.sample_labels(4, 8, 2, 4, conf, 0)
        h = HyperParams(alpha=0.0, beta=0.0, max_outer_iters=20)
        r = dataclasses.replace(fit(lm, h), line_search_failures=3)
        polished = polish_stationary_point(lm, r, h)
        assert polished.line_search_failures == 3
        assert (polished.converged, polished.iterations) == (r.converged, r.iterations)
        np.testing.assert_array_equal(polished.posterior, round_posterior(r.posterior))
        assert polished.objective_trace == r.objective_trace

    def test_nonzero_away_from_stationarity(self):
        lm = synthetic.random_instance(23)
        wp, ip, _ = random_state(lm, 24, scale=1.0)
        q = round_posterior(initialize_posterior(lm))
        r = FitResult(posterior=q, worker_params=wp, item_params=ip,
                      objective_trace=[], converged=False, iterations=0)
        h = HyperParams(alpha=0.0, beta=0.0)
        assert kl_identity_check(lm, r, h) > 1e-4

    def test_conditional_entropy_two_ways(self):
        # definition (full expectation) vs direct summation over the table
        from mmce.solver import _label_entropy, _log_model
        lm = synthetic.random_instance(25)
        wp, ip, q = random_state(lm, 26)
        prob, _ = _log_model(lm, wp, ip, Mode.MULTICLASS)
        direct = 0.0
        for l in range(lm.num_labels):
            for c in range(lm.num_classes):
                for k in range(lm.num_classes):
                    p = prob[c, k, l]
                    direct -= q[lm.items[l], c] * p * np.log(p)
        assert _label_entropy(solver.gather_rows(lm.items, q), prob) == pytest.approx(direct)
