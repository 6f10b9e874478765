import numpy as np
import pytest

from mmce import synthetic
from mmce.baselines import (
    DSParams,
    _ds_e_step,
    _ds_log_joint,
    dawid_skene_em,
    majority_vote,
)
from mmce.data import from_triples
from mmce.solver import HyperParams, e_step, initialize_posterior

from conftest import logsumexp


def ds_marginal_loglik(labels, params: DSParams) -> float:
    """Marginal log-likelihood of the observed labels under a DS model: the
    independent reference for the Dawid-Skene trace values."""
    acc = _ds_log_joint(labels, params.confusion, params.prior)
    # Items without labels contribute log sum_c prior(c) = 0.
    return float(np.sum(logsumexp(acc, axis=1)))


class TestMajorityVote:
    def test_three_worker_table(self, three_worker_labels):
        posterior, pred = majority_vote(three_worker_labels)
        # items 0 and 1 have a 2-1 majority for class 0
        assert pred[0] == 0 and pred[1] == 0
        np.testing.assert_allclose(posterior[0], [2 / 3, 1 / 3, 0.0])

    def test_tie_breaks_to_lowest_label(self):
        lm = from_triples([("a", "i", 1), ("b", "i", 0)], 2)
        posterior, pred = majority_vote(lm)
        np.testing.assert_allclose(posterior[0], [0.5, 0.5])
        assert pred[0] == 0

    def test_unlabeled_item_gets_uniform_row(self):
        lm = from_triples([("a", "i", 1)], 2, item_ids=["i", "ghost"])
        posterior, pred = majority_vote(lm)
        np.testing.assert_allclose(posterior[1], [0.5, 0.5])
        assert pred[1] == 0

    def test_equals_initial_posterior(self, three_worker_labels):
        posterior, _ = majority_vote(three_worker_labels)
        np.testing.assert_array_equal(posterior, initialize_posterior(three_worker_labels))


class TestDawidSkene:
    def test_perfect_agreement_is_a_fixed_point(self):
        # every worker gives the same label per item: the MV posterior is
        # already one-hot and unsmoothed EM cannot move it
        truth = [0, 1, 2, 1, 0, 2]
        triples = [(f"w{i}", f"i{j}", t) for i in range(4) for j, t in enumerate(truth)]
        lm = from_triples(triples, 3)
        posterior, params, _ = dawid_skene_em(lm, smoothing=0.0)
        expected = np.eye(3)[truth]
        np.testing.assert_allclose(posterior, expected, atol=1e-12)

    def test_recovers_planted_accuracy(self):
        m, n, K = 30, 200, 2
        conf = np.stack([synthetic.diagonal_confusion(K, 0.8)] * m)
        lm, gold = synthetic.sample_labels(m, n, K, 5, conf, seed=11)
        posterior, params, _ = dawid_skene_em(lm)
        diag = np.einsum("ikk->ik", params.confusion).mean()
        assert diag == pytest.approx(0.8, abs=0.02)
        pred = np.argmax(posterior, axis=1)
        truth = np.array([gold.by_item[j] for j in range(n)])
        # five labels per item at 0.8 accuracy leaves an irreducible ~6% error
        assert np.mean(pred != truth) < 0.08

    def test_loglik_trace_non_decreasing_unsmoothed(self):
        # EM monotonicity holds when the M-step is the exact MLE (no smoothing);
        # dense instances keep every confusion row populated
        for seed in range(10):
            rng = np.random.default_rng(seed)
            m, n, K = 4, 12, 3
            triples = [(f"w{i}", f"i{j}", int(rng.integers(K)))
                       for i in range(m) for j in range(n)]
            lm = from_triples(triples, K)
            _, _, trace = dawid_skene_em(lm, smoothing=0.0, max_iters=40)
            assert np.all(np.diff(trace) >= -1e-9)

    def test_e_step_matches_mmce_e_step(self):
        # with worker scores set to log confusion rows, zero item scores, and a
        # uniform prior, both models assign identical posteriors
        lm = synthetic.random_instance(23)
        m, K = lm.num_workers, lm.num_classes
        rng = np.random.default_rng(5)
        conf = rng.dirichlet(np.ones(K) * 3, size=(m, K))
        ds_posterior, _ = _ds_e_step(lm, conf, np.full(K, 1.0 / K))
        sigma = np.log(conf)
        tau = np.zeros((lm.num_items, K, K))
        q = e_step(lm, sigma, tau, HyperParams(alpha=1.0, beta=1.0))
        np.testing.assert_allclose(q, ds_posterior, atol=1e-10)

    def test_marginal_loglik_closed_form(self):
        # one worker, one item, known prior: log sum_c pi(c) p(x | c)
        lm = from_triples([("w", "i", 1)], 2)
        conf = np.array([[[0.7, 0.3], [0.2, 0.8]]])
        prior = np.array([0.6, 0.4])
        ll = ds_marginal_loglik(lm, DSParams(conf, prior))
        assert ll == pytest.approx(np.log(0.6 * 0.3 + 0.4 * 0.8))

    def test_trace_is_the_marginal_loglik_of_the_returned_params(self):
        # the E-step's log-normalizer sum is the marginal log-likelihood, exactly
        for seed in range(10):
            lm = synthetic.random_instance(seed)
            for max_iters in (1, 3, 100):
                _, params, trace = dawid_skene_em(lm, max_iters=max_iters)
                assert trace[-1] == ds_marginal_loglik(lm, params)

    def test_empty_label_matrix_rejected(self):
        lm = from_triples([("w", "i", 0)], 2).subset(np.zeros(1, dtype=bool))
        with pytest.raises(ValueError, match="empty"):
            dawid_skene_em(lm)

    @pytest.mark.parametrize("smoothing", [-0.1, np.nan, np.inf])
    def test_negative_or_non_finite_smoothing_rejected(self, smoothing):
        lm = from_triples([("w", "i", 0)], 2)
        with pytest.raises(ValueError, match="^smoothing must be finite and >= 0$"):
            dawid_skene_em(lm, smoothing=smoothing)

    @pytest.mark.parametrize("tol", [0.0, -1e-8, np.nan, np.inf])
    def test_tol_outside_zero_to_infinity_rejected(self, tol):
        # a tol <= 0 or NaN would never stop early
        lm = from_triples([("w", "i", 0)], 2)
        with pytest.raises(ValueError, match="^tol must be positive and finite$"):
            dawid_skene_em(lm, tol=tol)

    @pytest.mark.parametrize("max_iters", [True, False, 2.5, 3.0, "3"])
    def test_non_integer_max_iters_rejected(self, max_iters):
        # True would run one iteration, and 2.5 would fail in range() with a TypeError
        lm = from_triples([("w", "i", 0)], 2)
        with pytest.raises(ValueError, match="^max_iters must be an integer, got "):
            dawid_skene_em(lm, max_iters=max_iters)

    def test_numpy_integer_max_iters_accepted(self):
        lm = synthetic.random_instance(0)
        _, _, trace = dawid_skene_em(lm, max_iters=np.int64(1))
        assert len(trace) == 1

    @pytest.mark.parametrize("max_iters", [0, -1])
    def test_fewer_than_one_iteration_rejected(self, max_iters):
        lm = from_triples([("w", "i", 0)], 2)
        with pytest.raises(ValueError, match="^max_iters must be >= 1$"):
            dawid_skene_em(lm, max_iters=max_iters)
