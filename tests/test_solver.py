import warnings

import numpy as np
import pytest

from mmce import solver, synthetic
from mmce.confusion import Mode, RegularizerVariant, init_params
from mmce.data import from_triples
from mmce.selection import resolve_hyperparams
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


class TestInitializePosterior:
    def test_vote_counts(self):
        lm = from_triples([("a", "i", 0), ("b", "i", 0), ("c", "i", 1)], 2)
        np.testing.assert_allclose(initialize_posterior(lm), [[2 / 3, 1 / 3]])

    def test_unlabeled_item_uniform(self):
        lm = from_triples([("a", "i", 0)], 4, item_ids=["i", "empty"])
        np.testing.assert_allclose(initialize_posterior(lm)[1], np.full(4, 0.25))

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


class TestMStep:
    @staticmethod
    def count_model_passes(monkeypatch):
        """_log_model calls and the FitResult of one planted gamma = 1 fit."""
        conf = np.stack([synthetic.diagonal_confusion(3, 0.8)] * 30)
        lm, _ = synthetic.sample_labels(30, 200, 3, 10, conf, seed=0)
        alpha, beta = resolve_hyperparams(1.0, lm)
        calls = []
        model = solver._log_model

        def counted(*args):
            calls.append(1)
            return model(*args)

        monkeypatch.setattr(solver, "_log_model", counted)
        r = fit(lm, HyperParams(alpha=alpha, beta=beta))
        assert r.line_search_failures == 0
        return len(calls), r

    def test_model_evaluations_per_outer_iteration(self, monkeypatch):
        # A line search that halves plain gradient steps from size 1 on every
        # step costs about 39 evaluations per outer iteration here.
        calls, r = self.count_model_passes(monkeypatch)
        assert calls <= 25 * r.iterations

    def test_one_model_pass_per_score_point(self, monkeypatch):
        # Each line-search trial, each M-step start and each fitted point gets
        # one model pass; without that sharing this case takes 23 per iteration.
        calls, r = self.count_model_passes(monkeypatch)
        assert calls <= 17 * r.iterations

    def test_curvature_scaled_step_passes_at_size_one(self, monkeypatch):
        # Steps scaled by the curvature bound pass at size 1 on almost every
        # search here, about 7 passes per outer iteration; plain gradient
        # steps need 16, because most of their sizes are found by halving.
        calls, r = self.count_model_passes(monkeypatch)
        assert calls <= 8 * r.iterations

    @pytest.mark.parametrize("mode", list(Mode))
    def test_model_passes_run_inside_objective_or_gradient(self, monkeypatch, mode):
        # The benchmark tracer counts line-search trials and accepted steps from
        # the objective and gradient calls under m_step, so m_step must make its
        # model passes through those two functions only.
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

    def test_huge_penalty_drives_params_to_zero(self):
        lm = synthetic.random_instance(5)
        wp, ip, q = random_state(lm, 6, scale=1.0)
        h = HyperParams(alpha=1e6, beta=1e6, inner_gradient_steps=50)
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
        for seed in range(100):
            lm = synthetic.random_instance(seed)
            wp, ip, q = random_state(lm, seed + 31)
            h = HyperParams(alpha=0.5, beta=0.5)
            before = penalized_likelihood(lm, q, wp, ip, h)
            w2, i2, _ = m_step(lm, q, wp, ip, h)
            after = penalized_likelihood(lm, q, w2, i2, h)
            assert after >= before - 1e-9


def reference_fit(labels, hyper):
    """The fit loop with every trace and E-step making its own model pass."""
    K = labels.num_classes
    wp = init_params(hyper.mode, labels.num_workers, K)
    ip = init_params(hyper.mode, labels.num_items, K)
    posterior = initialize_posterior(labels)
    trace = [dual_objective(labels, posterior, wp, ip, hyper)]
    for _ in range(hyper.max_outer_iters):
        prev = trace[-1]
        wp, ip, _ = m_step(labels, posterior, wp, ip, hyper)
        trace.append(dual_objective(labels, posterior, wp, ip, hyper))
        posterior = e_step(labels, wp, ip, hyper)
        trace.append(dual_objective(labels, posterior, wp, ip, hyper))
        if abs(trace[-1] - prev) < hyper.tol * max(abs(prev), solver.PROB_FLOOR):
            break
    return posterior, wp, ip, trace


def assert_fit_equals_reference(labels, hyper):
    r = fit(labels, hyper)
    posterior, wp, ip, trace = reference_fit(labels, hyper)
    assert np.array_equal(r.posterior, posterior)
    assert np.array_equal(r.worker_params, wp)
    assert np.array_equal(r.item_params, ip)
    assert np.array_equal(r.objective_trace, trace)


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
    def test_precomputed_model_gives_same_values(self, mode):
        h = HyperParams(alpha=0.7, beta=1.3, mode=mode)
        for seed in range(10):
            lm = synthetic.random_instance(seed)
            wp, ip, q = random_state(lm, seed + 50, mode=mode)
            model = solver._log_model(lm, wp, ip, mode)
            out = []
            value = penalized_likelihood(lm, q, wp, ip, h, model_out=out)
            assert len(out) == 1
            assert value == penalized_likelihood(lm, q, wp, ip, h, model)
            assert dual_objective(lm, q, wp, ip, h) == dual_objective(lm, q, wp, ip, h, model)
            assert np.array_equal(e_step(lm, wp, ip, h), e_step(lm, wp, ip, h, model))
            for got, want in zip(m_step_gradients(lm, q, wp, ip, h, model),
                                 m_step_gradients(lm, q, wp, ip, h)):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_lbfgs_objective_is_the_m_step_pair(self, mode):
        # the L-BFGS paths negate exactly what m_step ascends and follows
        h = HyperParams(alpha=0.7, beta=1.3, mode=mode)
        for seed in range(10):
            lm = synthetic.random_instance(seed)
            wp, ip, q = random_state(lm, seed + 60, mode=mode)
            x = np.concatenate([wp.ravel(), ip.ravel()])
            value, grad = solver._value_and_grad(x, lm, q, h, wp.shape, ip.shape)
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
        expected = sum(log_obs[l, truth[lm.items[l]]] for l in range(lm.num_labels))
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
                data += q[lm.items[l], c] * log_obs[l, c]
        hy = -sum(q[j, c] * np.log(q[j, c]) for j in range(lm.num_items)
                  for c in range(lm.num_classes) if q[j, c] > 0)
        pen = 0.35 * np.sum(wp ** 2) + 0.65 * np.sum(ip ** 2)
        assert dual_objective(lm, q, wp, ip, h) == pytest.approx(data + hy - pen)

    def test_entropy_zero_log_zero(self):
        assert entropy(np.array([[1.0, 0.0]])) == 0.0


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


class TestKlIdentity:
    def test_small_residual_after_convergence(self):
        conf = np.array([synthetic.diagonal_confusion(2, 0.7)] * 8)
        labels, _ = synthetic.sample_labels(8, 16, 2, 8, conf, 0)
        h = HyperParams(alpha=0.0, beta=0.0, max_outer_iters=300, tol=1e-10)
        r = fit(labels, h)
        polished = polish_stationary_point(labels, r, h)
        assert kl_identity_check(labels, polished, h) < 1e-6

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
        log_full, _ = _log_model(lm, wp, ip, Mode.MULTICLASS)
        direct = 0.0
        for l in range(lm.num_labels):
            for c in range(lm.num_classes):
                for k in range(lm.num_classes):
                    p = np.exp(log_full[l, c, k])
                    direct -= q[lm.items[l], c] * p * log_full[l, c, k]
        assert _label_entropy(lm, q, log_full) == pytest.approx(direct)
