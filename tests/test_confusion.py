from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmce.confusion import (
    Mode,
    RegularizerVariant,
    center,
    expand_ordinal,
    init_params,
    ordinal_basis,
    project_ordinal,
    read_params,
    regularizer_gradient,
    regularizer_value,
    write_params,
)
from mmce.data import from_triples
from mmce.solver import _log_model

score_arrays = st.integers(0, 2 ** 31 - 1).map(
    lambda s: np.random.default_rng(s).normal(scale=2.0, size=(3, 3)))


class TestExpandOrdinal:
    def test_k2_is_a_bijection_onto_dense(self):
        # one threshold, four relation pairs: every 2x2 cell is hit exactly once
        p = np.arange(4.0).reshape(1, 1, 4)
        dense = expand_ordinal(p, 2)
        # order: (>=,>=) -> (1,1), (>=,<) -> (1,0), (<,>=) -> (0,1), (<,<) -> (0,0)
        np.testing.assert_allclose(dense[0], [[3.0, 2.0], [1.0, 0.0]])
        basis = ordinal_basis(2).reshape(4, 4)
        assert np.linalg.matrix_rank(basis) == 4

    def test_k4_threshold2_cell(self):
        # c=1 < 2 and k=2 >= 2: only the (<, >=) slot of threshold 2 covers (1, 2)
        p = np.zeros((1, 3, 4))
        p[0, 1, 2] = 5.0  # s=2, (<, >=)
        dense = expand_ordinal(p, 4)
        assert dense[0, 1, 2] == 5.0
        assert dense[0, 2, 2] == 0.0  # c=2 >= 2 misses the (<, >=) slot

    def test_zero_params_zero_dense(self):
        assert not expand_ordinal(np.zeros((3, 2, 4)), 3).any()

    def test_linearity(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(2, 2, 3, 4))
        np.testing.assert_allclose(expand_ordinal(a + 2 * b, 4),
                                   expand_ordinal(a, 4) + 2 * expand_ordinal(b, 4))

    def test_project_is_adjoint(self):
        rng = np.random.default_rng(1)
        p = rng.normal(size=(2, 3, 4))
        d = rng.normal(size=(2, 4, 4))
        lhs = np.sum(expand_ordinal(p, 4) * d)
        rhs = np.sum(p * project_ordinal(d, 4))
        assert lhs == pytest.approx(rhs)

    @pytest.mark.parametrize("K", range(2, 7))
    @pytest.mark.parametrize("scale", [1.0, 800.0])
    def test_matmul_forms_match_the_einsum_reference(self, K, scale):
        # Both maps are one matmul against the flattened basis; the einsum forms
        # sum the same terms in another order. Tolerance: 1e-12 of the largest
        # magnitude, fixed before the matmul forms were written.
        rng = np.random.default_rng(K)
        for _ in range(5):
            p = rng.uniform(-scale, scale, size=(7, K - 1, 4))
            d = rng.uniform(-scale, scale, size=(7, K, K))
            for got, want in ((expand_ordinal(p, K), einsum_expand(p, K)),
                              (project_ordinal(d, K), einsum_project(d, K))):
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert expand_ordinal(np.zeros((0, K - 1, 4)), K).shape == (0, K, K)
        assert project_ordinal(np.zeros((0, K, K)), K).shape == (0, K - 1, 4)


def einsum_expand(params, K):
    """expand_ordinal as one einsum against the 4-d basis."""
    return np.einsum("...sr,srck->...ck", params, ordinal_basis(K))


def einsum_project(dense_grad, K):
    """project_ordinal as one einsum against the 4-d basis."""
    return np.einsum("...ck,srck->...sr", dense_grad, ordinal_basis(K))


def log_label_distribution(sigma, tau):
    """Row-wise log P(k | c) that `fit` uses, for one worker/item pair: column k
    is the log_obs of a one-observation matrix labeled k, with sigma as the
    worker's scores and tau as the item's."""
    K = sigma.shape[-1]
    return np.column_stack([
        _log_model(from_triples([("w", "i", k)], K), sigma[None], tau[None],
                   Mode.MULTICLASS)[1][:, 0]
        for k in range(K)])


def label_distribution(sigma, tau, c):
    """P(observed label | true class c) under the labeling model."""
    return np.exp(log_label_distribution(sigma, tau)[c])


class TestLabelDistribution:
    def test_zero_scores_uniform(self):
        np.testing.assert_allclose(label_distribution(np.zeros((3, 3)), np.zeros((3, 3)), 1),
                                   np.full(3, 1 / 3))

    def test_binary_closed_form(self):
        sigma = np.array([[np.log(2.0), 0.0], [0.0, 0.0]])
        np.testing.assert_allclose(label_distribution(sigma, np.zeros((2, 2)), 0),
                                   [2 / 3, 1 / 3], atol=1e-15)

    def test_matches_exact_rational_evaluation(self):
        # brute-force oracle in exact arithmetic on rational log-scores
        num = [[1, 2, 3], [5, 1, 2], [2, 2, 1]]
        sigma = np.log(np.array(num, dtype=float))
        tau = np.log(np.array([[2, 1, 1], [1, 3, 1], [1, 1, 4]], dtype=float))
        for c in range(3):
            weights = [Fraction(num[c][k]) * Fraction([2, 1, 1][k] if c == 0 else
                                                      [1, 3, 1][k] if c == 1 else
                                                      [1, 1, 4][k]) for k in range(3)]
            total = sum(weights)
            expected = [float(w / total) for w in weights]
            np.testing.assert_allclose(label_distribution(sigma, tau, c), expected,
                                       rtol=1e-12)

    def test_overflow_safe(self):
        sigma = np.array([[800.0, 0.0], [0.0, 800.0]])
        p = label_distribution(sigma, np.zeros((2, 2)), 0)
        assert np.isfinite(p).all() and p.sum() == pytest.approx(1.0)

    @given(score_arrays, score_arrays)
    @settings(max_examples=50, deadline=None)
    def test_rows_normalize_and_stay_positive(self, sigma, tau):
        p = np.exp(log_label_distribution(sigma, tau))
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert (p > 0).all()

    @given(score_arrays, score_arrays, st.floats(-5, 5))
    @settings(max_examples=50, deadline=None)
    def test_row_shift_invariance(self, sigma, tau, shift):
        c = 1
        shifted = sigma.copy()
        shifted[c] += shift
        np.testing.assert_allclose(label_distribution(sigma, tau, c),
                                   label_distribution(shifted, tau, c), atol=1e-12)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_double_ratio_is_worker_independent(self, seed):
        # [P_ij(k|c)/P_ij(c|c)] * [P_ij'(c|c)/P_ij'(k|c)] depends only on the items
        rng = np.random.default_rng(seed)
        sig = rng.normal(scale=2.0, size=(2, 3, 3))
        tau = rng.normal(scale=2.0, size=(2, 3, 3))
        c, k = 0, 2
        ratios = []
        for i in range(2):
            pj = label_distribution(sig[i], tau[0], c)
            pj2 = label_distribution(sig[i], tau[1], c)
            ratios.append((pj[k] / pj[c]) * (pj2[c] / pj2[k]))
        assert ratios[0] == pytest.approx(ratios[1], abs=1e-10, rel=1e-10)


def centered_value_oracle(params, weight):
    # direct evaluation of the centered quadratic, entry by entry
    total = 0.0
    for mat in params:
        K = mat.shape[0]
        diag_mean = sum(mat[c, c] for c in range(K)) / K
        off = [mat[c, k] for c in range(K) for k in range(K) if k != c]
        off_mean = sum(off) / (K * (K - 1))
        for c in range(K):
            total += (mat[c, c] - diag_mean) ** 2
            for k in range(K):
                if k != c:
                    total += (mat[c, k] - off_mean) ** 2
    return 0.5 * weight * total


def regularizer_value_and_gradient(params, variant, weight):
    """The penalty value and gradient computed together, as one function."""
    if weight < 0:
        raise ValueError("regularizer weight must be >= 0")
    params = np.asarray(params, dtype=float)
    if variant == RegularizerVariant.EUCLIDEAN:
        return 0.5 * weight * float(np.sum(params ** 2)), weight * params
    centered = center(params)
    return 0.5 * weight * float(np.sum(centered ** 2)), weight * centered


class TestRegularizers:
    def test_zero_params(self):
        for variant in RegularizerVariant:
            assert regularizer_value(np.zeros((2, 3, 3)), variant, 1.5) == 0.0
            assert not regularizer_gradient(np.zeros((2, 3, 3)), variant, 1.5).any()

    @pytest.mark.parametrize("variant", list(RegularizerVariant))
    def test_halves_equal_the_combined_reference(self, variant):
        rng = np.random.default_rng(13)
        for weight in (0.0, 0.3, 7.5):
            for shape in ((1, 2, 2), (4, 3, 3), (3, 5, 5)):
                p = rng.normal(scale=3.0, size=shape)
                v, g = regularizer_value_and_gradient(p, variant, weight)
                assert regularizer_value(p, variant, weight) == v
                assert np.array_equal(regularizer_gradient(p, variant, weight), g)

    def test_negative_weight_rejected(self):
        for half in (regularizer_value, regularizer_gradient):
            with pytest.raises(ValueError, match="weight"):
                half(np.zeros((1, 2, 2)), RegularizerVariant.EUCLIDEAN, -1.0)

    def test_euclidean_value_and_gradient(self):
        p = np.array([[[1.0, -2.0], [0.5, 0.0]]])
        v = regularizer_value(p, RegularizerVariant.EUCLIDEAN, 2.0)
        g = regularizer_gradient(p, RegularizerVariant.EUCLIDEAN, 2.0)
        assert v == pytest.approx(1.0 * (1 + 4 + 0.25))
        np.testing.assert_allclose(g, 2.0 * p)

    def test_centered_vanishes_on_scaled_identity(self):
        p = 3.7 * np.eye(3)[None]
        v = regularizer_value(p, RegularizerVariant.CENTERED, 1.0)
        assert v == pytest.approx(0.0)

    def test_centered_matches_oracle(self):
        rng = np.random.default_rng(7)
        p = rng.normal(size=(2, 3, 3))
        v = regularizer_value(p, RegularizerVariant.CENTERED, 0.8)
        assert v == pytest.approx(centered_value_oracle(p, 0.8), rel=1e-12)

    def test_centered_rejected_for_ordinal_shape(self):
        for half in (regularizer_value, regularizer_gradient):
            with pytest.raises(ValueError, match="multiclass"):
                half(np.zeros((2, 2, 4)), RegularizerVariant.CENTERED, 1.0)

    @pytest.mark.parametrize("variant", list(RegularizerVariant))
    def test_gradient_matches_finite_differences(self, variant):
        rng = np.random.default_rng(11)
        p = rng.normal(size=(2, 3, 3))
        g = regularizer_gradient(p, variant, 1.3)
        eps = 1e-5
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + eps
            vp = regularizer_value(p, variant, 1.3)
            p[idx] = orig - eps
            vm = regularizer_value(p, variant, 1.3)
            p[idx] = orig
            fd = (vp - vm) / (2 * eps)
            assert g[idx] == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_center_is_idempotent(self):
        rng = np.random.default_rng(3)
        p = rng.normal(size=(2, 4, 4))
        np.testing.assert_allclose(center(center(p)), center(p), atol=1e-12)


class TestParamsSidecar:
    @pytest.mark.parametrize("mode", list(Mode))
    def test_round_trip(self, tmp_path, mode):
        rng = np.random.default_rng(5)
        K = 3
        wp = rng.normal(size=init_params(mode, 2, K).shape)
        ip = rng.normal(size=init_params(mode, 4, K).shape)
        path = tmp_path / "params.tsv"
        write_params(path, wp, ip, mode)
        wp2, ip2, mode2 = read_params(path)
        assert mode2 == mode
        np.testing.assert_allclose(wp2, wp, atol=1e-9)
        np.testing.assert_allclose(ip2, ip, atol=1e-9)
