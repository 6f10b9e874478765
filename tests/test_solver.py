import tracemalloc
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest

from mmce import solver, synthetic
from mmce.baselines import _ds_log_joint, _ds_m_step
from mmce.confusion import (
    Mode,
    RegularizerVariant,
    expand_ordinal,
    init_params,
    logsumexp,
    project_ordinal,
)
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


def planted_gamma_one(mode=Mode.MULTICLASS):
    """A planted 30 x 200, K = 3 instance and its gamma = 1 hyperparameters."""
    conf = np.stack([synthetic.diagonal_confusion(3, 0.8)] * 30)
    lm, _ = synthetic.sample_labels(30, 200, 3, 10, conf, seed=0)
    alpha, beta = resolve_hyperparams(1.0, lm)
    return lm, HyperParams(alpha=alpha, beta=beta, mode=mode)


def counted_model_passes(monkeypatch):
    """A list that gains one entry per `_log_model` call from now on."""
    calls = []
    model = solver._log_model

    def counted(*args):
        calls.append(1)
        return model(*args)

    monkeypatch.setattr(solver, "_log_model", counted)
    return calls


class TestMStep:
    @staticmethod
    def count_model_passes(monkeypatch):
        """_log_model calls and the FitResult of one planted gamma = 1 fit."""
        lm, h = planted_gamma_one()
        calls = counted_model_passes(monkeypatch)
        r = fit(lm, h)
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

    def test_model_handed_between_fit_and_m_step(self, monkeypatch):
        # fit's model at the new scores is m_step's last accepted one, and it is
        # the next m_step's starting model; recomputing them costs two more
        # passes per outer iteration, about 7 in all here.
        calls, r = self.count_model_passes(monkeypatch)
        assert calls <= 6 * r.iterations

    @pytest.mark.parametrize("mode", list(Mode))
    def test_one_model_pass_per_line_search_trial(self, monkeypatch, mode):
        # Across a whole fit, the only model pass outside a line-search trial
        # is the one at the starting scores.
        stack, counts = [], {"model": 0, "objective": 0, "m_step": 0}

        def probe(name, fn):
            def wrapped(*args, **kwargs):
                if name != "objective" or "m_step" in stack:
                    counts[name] += 1
                stack.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()
            return wrapped

        for attr, name in (("penalized_likelihood", "objective"), ("m_step", "m_step"),
                           ("_log_model", "model")):
            monkeypatch.setattr(solver, attr, probe(name, getattr(solver, attr)))
        lm, h = planted_gamma_one(mode)
        r = fit(lm, h)
        assert r.line_search_failures == 0
        assert counts["m_step"] == r.iterations
        trials = counts["objective"] - counts["m_step"]
        assert counts["model"] == 1 + trials

    @pytest.mark.parametrize("mode", list(Mode))
    def test_fit_peak_memory_is_bounded_by_the_model_size(self, mode):
        # A fit holds one (L, K, K) model and the gradient's table of that size
        # at a time: the peak is about 4.0 model sizes here. A fit that kept its
        # own reference to the model while m_step runs reaches about 5.2.
        lm, h = planted_gamma_one(mode)
        fit(lm, h)  # fills caches that would otherwise count toward the peak
        tracemalloc.start()
        try:
            fit(lm, h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        model_size = lm.num_labels * lm.num_classes ** 2 * 8
        assert peak <= 4.5 * model_size, f"peak {peak / model_size:.2f} model sizes"

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


LOG_MODEL = solver._log_model  # the model pass itself, never memoized or counted


@mock.patch.object(solver, "_model", LOG_MODEL)
def reference_fit(labels, hyper):
    """The fit loop with every trace, E-step and M-step evaluation making its
    own model pass."""
    K = labels.num_classes
    wp = init_params(hyper.mode, labels.num_workers, K)
    ip = init_params(hyper.mode, labels.num_items, K)
    posterior = initialize_posterior(labels)
    trace = [dual_objective(labels, posterior, wp, ip, hyper)]
    step_fn = solver.m_step_exact if hyper.exact_m_step else m_step
    for _ in range(hyper.max_outer_iters):
        prev = trace[-1]
        wp, ip, _ = step_fn(labels, posterior, wp, ip, hyper)
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


class TestModelMemo:
    @staticmethod
    def assert_fresh(got, labels, wp, ip, mode):
        want = LOG_MODEL(labels, wp, ip, mode)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_same_labels_and_scores_make_one_pass(self, monkeypatch):
        calls = counted_model_passes(monkeypatch)
        lm = synthetic.random_instance(3)
        wp, ip, q = random_state(lm, 4)
        h = HyperParams(alpha=0.7, beta=1.3)
        value = penalized_likelihood(lm, q, wp, ip, h)
        grads = m_step_gradients(lm, q, wp, ip, h)
        posterior = e_step(lm, wp.copy(), ip.copy(), h)  # equal by value is enough
        dual_objective(lm, q, wp, ip, h)
        assert len(calls) == 1
        with mock.patch.object(solver, "_model", LOG_MODEL):
            assert value == penalized_likelihood(lm, q, wp, ip, h)
            for got, want in zip(grads, m_step_gradients(lm, q, wp, ip, h)):
                assert np.array_equal(got, want)
            assert np.array_equal(posterior, e_step(lm, wp, ip, h))

    def test_scores_changed_in_place_make_a_fresh_pass(self, monkeypatch):
        calls = counted_model_passes(monkeypatch)
        lm = synthetic.random_instance(5)
        wp, ip, q = random_state(lm, 6)
        h = HyperParams(alpha=0.7, beta=1.3)
        before = penalized_likelihood(lm, q, wp, ip, h)
        wp[0, 0, 0] += 1.0
        changed_w = solver._model(lm, wp, ip, h.mode)
        self.assert_fresh(changed_w, lm, wp, ip, h.mode)
        ip[-1, 1, 0] -= 1.0
        changed_i = solver._model(lm, wp, ip, h.mode)
        self.assert_fresh(changed_i, lm, wp, ip, h.mode)
        assert len(calls) == 3
        ip[-1, 1, 0] += 1.0
        wp[0, 0, 0] -= 1.0
        assert penalized_likelihood(lm, q, wp, ip, h) == before
        assert len(calls) == 4

    def test_other_labels_or_mode_make_a_fresh_pass(self, monkeypatch):
        calls = counted_model_passes(monkeypatch)
        lm = synthetic.random_instance(7)
        fold = lm.subset(np.arange(lm.num_labels) % 2 == 0)  # same ids, fewer labels
        wp, ip, _ = random_state(lm, 8)
        solver._model(lm, wp, ip, Mode.MULTICLASS)
        self.assert_fresh(solver._model(fold, wp, ip, Mode.MULTICLASS),
                          fold, wp, ip, Mode.MULTICLASS)
        assert len(calls) == 2
        wo, io, _ = random_state(fold, 8, mode=Mode.ORDINAL)
        self.assert_fresh(solver._model(fold, wo, io, Mode.ORDINAL),
                          fold, wo, io, Mode.ORDINAL)
        assert len(calls) == 3

    def test_old_model_is_dropped_before_a_new_pass(self, monkeypatch):
        lm = synthetic.random_instance(9)
        wp, ip, _ = random_state(lm, 10)
        old = weakref.ref(solver._model(lm, wp, ip, Mode.MULTICLASS)[0])
        alive = []

        def probed(*args):
            alive.append(old() is not None)
            return LOG_MODEL(*args)

        monkeypatch.setattr(solver, "_log_model", probed)
        solver._model(lm, wp + 1.0, ip, Mode.MULTICLASS)
        assert alive == [False]

    @pytest.mark.parametrize("mode", list(Mode))
    def test_slot_is_empty_after_fit(self, mode):
        lm, h = planted_gamma_one(mode)
        fit(lm, h)
        assert solver._memo == [None]

    def test_slot_is_empty_after_polish(self):
        conf = np.array([synthetic.diagonal_confusion(2, 0.7)] * 4)
        lm, _ = synthetic.sample_labels(4, 8, 2, 4, conf, 0)
        h = HyperParams(alpha=0.0, beta=0.0, max_outer_iters=20)
        polish_stationary_point(lm, fit(lm, h), h)
        assert solver._memo == [None]


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
    """The posterior rows and the label constants in `_model`'s slot."""

    @staticmethod
    def fresh_value(lm, q, wp, ip, h):
        solver._memo[0] = None
        return penalized_likelihood(lm, q, wp, ip, h)

    def test_rows_are_kept_across_score_points(self, monkeypatch):
        calls = counted_row_gathers(monkeypatch)
        lm = synthetic.random_instance(11)
        wp, ip, q = random_state(lm, 12)
        h = HyperParams(alpha=0.7, beta=1.3)
        penalized_likelihood(lm, q, wp, ip, h)
        grads = m_step_gradients(lm, q, wp + 1.0, ip, h)
        value = penalized_likelihood(lm, q.copy(), wp, ip - 1.0, h)  # equal bytes
        solver._curvature_bound(lm, q, h)
        assert len(calls) == 1
        assert not solver._posterior_rows(lm, q).flags.writeable
        with mock.patch.object(solver, "_model", LOG_MODEL):
            solver._memo[0] = None
            for got, want in zip(grads, m_step_gradients(lm, q, wp + 1.0, ip, h)):
                assert np.array_equal(got, want)
        assert value == self.fresh_value(lm, q, wp, ip - 1.0, h)

    def test_posterior_changed_in_place_gets_fresh_rows(self, monkeypatch):
        calls = counted_row_gathers(monkeypatch)
        lm = synthetic.random_instance(13)
        wp, ip, q = random_state(lm, 14)
        h = HyperParams(alpha=0.7, beta=1.3)
        before = penalized_likelihood(lm, q, wp, ip, h)
        q[0] = q[0, ::-1].copy()
        after = penalized_likelihood(lm, q, wp, ip, h)
        assert len(calls) == 2
        assert after != before
        assert after == self.fresh_value(lm, q, wp, ip, h)
        assert np.array_equal(solver._posterior_rows(lm, q), solver.gather_rows(lm.items, q))

    def test_other_labels_get_fresh_rows_and_constants(self, monkeypatch):
        calls = counted_row_gathers(monkeypatch)
        lm = synthetic.random_instance(15)
        fold = lm.subset(np.arange(lm.num_labels) % 2 == 0)  # same ids, fewer labels
        wp, ip, q = random_state(lm, 16)
        h = HyperParams(alpha=0.7, beta=1.3)
        penalized_likelihood(lm, q, wp, ip, h)
        value = penalized_likelihood(fold, q, wp, ip, h)
        assert len(calls) == 2
        assert solver._memo[0]["labels"] is fold
        assert value == self.fresh_value(fold, q, wp, ip, h)
        one_hot, obs_index = solver._label_constants(fold)
        assert np.array_equal(solver._memo[0]["one_hot"], one_hot)
        assert np.array_equal(solver._memo[0]["obs_index"], obs_index)

    def test_constants_are_the_observed_labels(self):
        lm = synthetic.random_instance(17)
        one_hot, obs_index = solver._label_constants(lm)
        L = lm.num_labels
        assert one_hot.dtype == bool and one_hot.shape == (lm.num_classes, L)
        assert np.array_equal(np.argmax(one_hot, axis=0), lm.labels)
        assert np.array_equal(one_hot.sum(axis=0), np.ones(L))
        assert np.array_equal(obs_index, lm.labels * L + np.arange(L))
        assert not one_hot.flags.writeable and not obs_index.flags.writeable

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

    @pytest.mark.parametrize("mode", list(Mode))
    def test_one_constant_build_per_fit(self, monkeypatch, mode):
        builds = []
        build = solver._label_constants

        def counted(labels):
            builds.append(labels)
            return build(labels)

        monkeypatch.setattr(solver, "_label_constants", counted)
        lm, h = planted_gamma_one(mode)
        fold = lm.subset(np.arange(lm.num_labels) % 3 != 0)
        for labels in (lm, fold, lm):
            fit(labels, h)
        assert [b is want for b, want in zip(builds, (lm, fold, lm))] == [True] * 3
        assert len(builds) == 3


def entity_log_model(labels, worker_params, item_params, mode):
    """The entity-major (L, K, K) model that the class-major kernel replaced:
    (log_full, log_obs) with log_full[l, c, k] = log P(k | c) and
    log_obs[l, c] = log P(x_l | c)."""
    if mode == Mode.ORDINAL:
        worker_params = expand_ordinal(worker_params, labels.num_classes)
        item_params = expand_ordinal(item_params, labels.num_classes)
    log_full = np.take(worker_params, labels.workers, axis=0)
    log_full += np.take(item_params, labels.items, axis=0)
    log_full -= logsumexp(log_full, axis=2, keepdims=True)
    return log_full, log_full[np.arange(labels.num_labels), :, labels.labels]


def column_scatter(index, values, size):
    """The per-column scatter that the class-major `scatter_rows` replaced:
    out[index[l]] += values[l], one np.bincount per column of (L, ...) values."""
    tail = values.shape[1:]
    columns = values.reshape(len(values), int(np.prod(tail)))
    out = np.empty((size, columns.shape[1]))
    for j in range(columns.shape[1]):
        out[:, j] = np.bincount(index, weights=columns[:, j], minlength=size)
    return out.reshape((size, *tail))


def kernel_cases(scale):
    """Random instances with scores for both modes: normal with the given
    scale, or (scale=None) +-800 with a little noise, far past exp's range."""
    for seed in range(12):
        lm = synthetic.random_instance(seed, max_workers=6, max_items=9)
        for mode in Mode:
            rng = np.random.default_rng(seed + 100)
            shapes = [init_params(mode, n, lm.num_classes).shape
                      for n in (lm.num_workers, lm.num_items)]
            if scale is None:
                wp, ip = (800.0 * rng.choice([-1.0, 1.0], size=s) + rng.normal(size=s)
                          for s in shapes)
            else:
                wp, ip = (rng.normal(scale=scale, size=s) for s in shapes)
            q = rng.random((lm.num_items, lm.num_classes))
            q /= q.sum(axis=1, keepdims=True)
            yield lm, mode, wp, ip, q


class TestClassMajorKernel:
    @pytest.mark.parametrize("scale", [2.0, None])
    def test_log_model_is_the_log_space_softmax(self, scale):
        for lm, mode, wp, ip, _ in kernel_cases(scale):
            K, L = lm.num_classes, lm.num_labels
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                prob, log_obs = LOG_MODEL(lm, wp, ip, mode)
            assert prob.shape == (K, K, L) and log_obs.shape == (K, L)
            assert prob.flags.c_contiguous and log_obs.flags.c_contiguous
            dense_w, dense_i = ((expand_ordinal(p, K) if mode == Mode.ORDINAL else p)
                                for p in (wp, ip))
            for l in range(L):
                for c in range(K):
                    z = dense_w[lm.workers[l], c] + dense_i[lm.items[l], c]
                    lse = z.max() + np.log(np.sum(np.exp(z - z.max())))
                    np.testing.assert_allclose(prob[c, :, l], np.exp(z - lse),
                                               rtol=1e-12, atol=1e-300)
                    assert log_obs[c, l] == pytest.approx(z[lm.labels[l]] - lse,
                                                          rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(prob.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("scale", [2.0, None])
    def test_log_obs_is_bit_equal_to_the_entity_major_model(self, scale):
        for lm, mode, wp, ip, _ in kernel_cases(scale):
            _, log_obs = LOG_MODEL(lm, wp, ip, mode)
            _, want = entity_log_model(lm, wp, ip, mode)
            assert np.array_equal(log_obs, want.T)

    def test_gradient_matches_the_entity_major_formula(self):
        for lm, mode, wp, ip, q in kernel_cases(1.0):
            h = HyperParams(alpha=0.7, beta=1.3, mode=mode)
            log_full, _ = entity_log_model(lm, wp, ip, mode)
            per_obs = -np.exp(log_full)
            per_obs[np.arange(lm.num_labels), :, lm.labels] += 1.0
            per_obs *= q[lm.items][:, :, None]
            want = [column_scatter(index, per_obs, size) for index, size in
                    ((lm.workers, lm.num_workers), (lm.items, lm.num_items))]
            if mode == Mode.ORDINAL:
                want = [project_ordinal(g, lm.num_classes) for g in want]
            want[0] -= 0.7 * wp
            want[1] -= 1.3 * ip
            for got, w in zip(m_step_gradients(lm, q, wp, ip, h), want):
                assert got.shape == w.shape and got.flags.c_contiguous
                np.testing.assert_allclose(got, w, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("scale", [2.0, None])
    def test_e_step_is_bit_identical_to_column_scatter(self, scale):
        for lm, mode, wp, ip, _ in kernel_cases(scale):
            _, log_obs = entity_log_model(lm, wp, ip, mode)
            log_q = column_scatter(lm.items, log_obs, lm.num_items)
            log_q -= logsumexp(log_q, axis=1, keepdims=True)
            got = e_step(lm, wp, ip, HyperParams(mode=mode))
            assert got.flags.c_contiguous
            assert np.array_equal(got, np.exp(log_q))

    def test_curvature_bound_is_bit_identical_to_column_scatter(self):
        for lm, mode, _, _, q in kernel_cases(1.0):
            h = HyperParams(alpha=0.7, beta=1.3, mode=mode)
            K = lm.num_classes
            mass = 0.25 * np.take(q, lm.items, axis=0)
            for got, index, size, ridge in zip(
                    solver._curvature_bound(lm, q, h),
                    (lm.workers, lm.items), (lm.num_workers, lm.num_items), (0.7, 1.3)):
                dense = np.repeat(column_scatter(index, mass, size)[:, :, None], K, axis=2)
                want = (project_ordinal(dense, K) if mode == Mode.ORDINAL else dense) + ridge
                assert np.array_equal(got, want)

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
        prob, _ = _log_model(lm, wp, ip, Mode.MULTICLASS)
        direct = 0.0
        for l in range(lm.num_labels):
            for c in range(lm.num_classes):
                for k in range(lm.num_classes):
                    p = prob[c, k, l]
                    direct -= q[lm.items[l], c] * p * np.log(p)
        assert _label_entropy(lm, q, prob) == pytest.approx(direct)
