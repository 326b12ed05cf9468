"""Tests for the RKHS extension: Gram canonicalization, dual fit, prediction."""

import math

import numpy as np
import pytest

from ctreg import (
    Dataset,
    GctConfig,
    HARD_RULE,
    KernelSpec,
    NotPositiveSemidefiniteError,
    SOFT_RULE,
    ZeroDesignError,
    canonicalize,
    fit_gct,
    fit_kernel_gct,
    gram,
    in_sample_fit,
    kernel_canonicalize,
    kernel_effective_dimension,
    kernel_in_sample_error,
    predict,
    predict_kernel_batch,
)

LINEAR = KernelSpec(kind="linear")
RBF = KernelSpec(kind="rbf", gamma=0.5)


def random_points(seed, n, d):
    return np.random.default_rng(seed).standard_normal((n, d))


class TestKernelSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            KernelSpec(kind="sigmoid")
        with pytest.raises(ValueError):
            KernelSpec(kind="rbf", gamma=-1.0)
        with pytest.raises(ValueError):
            KernelSpec(kind="poly", degree=0)
        with pytest.raises(ValueError):
            KernelSpec(kind="poly", scale=0.0)
        for kind, field in [("rbf", "gamma"), ("poly", "coef0"), ("poly", "scale")]:
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError, match=f"kernel {field} must be finite"):
                    KernelSpec(kind=kind, **{field: value})


class TestGram:
    def test_linear_is_inner_products(self):
        X = random_points(0, 6, 3)
        np.testing.assert_allclose(gram(X, LINEAR), X @ X.T, atol=1e-12)

    def test_rbf_unit_diagonal(self):
        X = random_points(1, 5, 4)
        np.testing.assert_allclose(np.diag(gram(X, RBF)), np.ones(5), atol=1e-12)

    def test_rbf_gamma_zero_all_ones(self):
        X = random_points(2, 4, 2)
        np.testing.assert_allclose(
            gram(X, KernelSpec(kind="rbf", gamma=0.0)), np.ones((4, 4))
        )

    def test_exact_symmetry(self):
        X = random_points(3, 8, 5)
        K = gram(X, KernelSpec(kind="poly", degree=3, coef0=1.0, scale=0.5))
        np.testing.assert_array_equal(K, K.T)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_named(self, bad):
        X = random_points(4, 5, 3)
        X[3, 2] = bad
        for spec in (LINEAR, RBF):
            with pytest.raises(ValueError, match=r"row 3, column 2"):
                gram(X, spec)


class TestKernelCanonicalize:
    def test_scaled_identity(self):
        n = 4
        eig, vec = kernel_canonicalize(float(n) * np.eye(n))
        np.testing.assert_allclose(eig, np.ones(n))
        # the eigenvalue is fully degenerate, so any orthonormal basis is valid
        np.testing.assert_allclose(vec.T @ vec, np.eye(n), atol=1e-12)

    def test_rank_one(self):
        v = np.array([0.5, 0.5, 0.5, 0.5])
        K = 4.0 * np.outer(v, v)
        eig, vec = kernel_canonicalize(K)
        assert eig.shape == (1,)
        assert eig[0] == pytest.approx(1.0)
        np.testing.assert_allclose(np.abs(vec[:, 0]), v, atol=1e-12)

    def test_cross_module_linear_consistency(self):
        X = random_points(4, 6, 4)
        K = gram(X, LINEAR)
        eig, vec = kernel_canonicalize(K)
        dec = canonicalize(Dataset(X, np.zeros(6)))
        np.testing.assert_allclose(eig, dec.eigenvalues, atol=1e-10)
        # columns agree up to sign (different sign pivots)
        for j in range(dec.rank):
            dots = abs(float(vec[:, j] @ dec.left_vectors[:, j]))
            assert dots == pytest.approx(1.0, abs=1e-8)

    def test_not_psd_raises(self):
        K = np.diag([1.0, -0.5])
        with pytest.raises(NotPositiveSemidefiniteError):
            kernel_canonicalize(K)

    def test_zero_kernel_raises(self):
        with pytest.raises(ZeroDesignError):
            kernel_canonicalize(np.zeros((3, 3)))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            kernel_canonicalize(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_slightly_asymmetric_rejected(self):
        # the exact-equality shortcut must not accept a near-symmetric matrix
        K = np.eye(3)
        K[0, 1] = 1e-6
        with pytest.raises(ValueError, match="symmetric"):
            kernel_canonicalize(K)
        K[0, 1] = 1e-11  # within the 1e-10 tolerance: accepted
        assert kernel_canonicalize(K)[0].shape == (3,)


class TestFitKernelGct:
    def test_center_response_is_keyword_only(self):
        # a fifth positional argument once meant the rank floor; it must not
        # turn centering on
        X = random_points(5, 8, 3)
        Y = np.random.default_rng(5).standard_normal(8)
        with pytest.raises(TypeError):
            fit_kernel_gct(X, Y, RBF, GctConfig(tau=0.0), True)

    def test_interpolation_at_tau_zero(self):
        X = random_points(5, 8, 3)
        Y = np.random.default_rng(5).standard_normal(8)
        model = fit_kernel_gct(X, Y, RBF, GctConfig(tau=0.0))
        assert model.rank == 8  # RBF Gram is full rank on distinct points
        np.testing.assert_allclose(predict_kernel_batch(model, X), Y, atol=1e-8)

    def test_zero_response(self):
        X = random_points(6, 6, 2)
        model = fit_kernel_gct(X, np.zeros(6), RBF, GctConfig(tau=0.3))
        np.testing.assert_array_equal(model.dual_coeffs, np.zeros(6))
        np.testing.assert_array_equal(model.theta_hat, np.zeros(model.rank))

    def test_linear_kernel_matches_linear_module(self):
        n, d = 10, 15
        X = random_points(7, n, d)
        rng = np.random.default_rng(7)
        Y = X @ rng.standard_normal(d) + 0.1 * rng.standard_normal(n)
        holdout = rng.standard_normal((5, d))
        for rule in (SOFT_RULE, HARD_RULE):
            for tau, phi in ((0.0, 0.0), (0.3, 0.0), (0.3, 1.0)):
                config = GctConfig(tau=tau, phi=phi, rule=rule)
                km = fit_kernel_gct(X, Y, LINEAR, config)
                lm = fit_gct(Dataset(X, Y), config)
                np.testing.assert_array_equal(km.theta_hat == 0, lm.theta_hat == 0)
                np.testing.assert_allclose(
                    predict_kernel_batch(km, holdout), predict(lm, holdout), atol=1e-8
                )

    def test_dual_coefficient_identity(self):
        X = random_points(8, 9, 4)
        Y = np.random.default_rng(8).standard_normal(9)
        model = fit_kernel_gct(X, Y, RBF, GctConfig(tau=0.2, phi=1.0))
        expected = (
            model.left_vectors @ (model.theta_hat / model.eigenvalues) / math.sqrt(9)
        )
        np.testing.assert_allclose(model.dual_coeffs, expected, atol=1e-10)

    def test_eigenvalues_sorted_positive(self):
        X = random_points(9, 7, 3)
        model = fit_kernel_gct(X, np.ones(7), RBF, GctConfig(tau=0.0))
        assert np.all(model.eigenvalues > 0)
        assert np.all(np.diff(model.eigenvalues) <= 0)


class TestPredictKernel:
    def test_training_point_equals_in_sample_fit(self):
        X = random_points(10, 8, 3)
        Y = np.random.default_rng(10).standard_normal(8)
        model = fit_kernel_gct(X, Y, RBF, GctConfig(tau=0.1))
        K = gram(X, RBF)
        fitted = K @ model.dual_coeffs
        for i in range(8):
            assert predict_kernel_batch(model, X[i][None, :])[0] == pytest.approx(
                fitted[i], abs=1e-10
            )

    def test_zero_dual_coefficients(self):
        X = random_points(11, 5, 2)
        model = fit_kernel_gct(X, np.zeros(5), RBF, GctConfig(tau=0.0))
        assert predict_kernel_batch(model, np.ones((1, 2)))[0] == 0.0

    def test_dual_vs_spectral_agreement(self):
        from ctreg.kernel import _cross_gram

        X = random_points(12, 10, 4)
        Y = np.random.default_rng(12).standard_normal(10)
        model = fit_kernel_gct(X, Y, RBF, GctConfig(tau=0.15, phi=1.0))
        x = np.random.default_rng(13).standard_normal(4)
        kx = _cross_gram(RBF, x[None, :], X)[0]
        spectral = float(
            kx @ model.left_vectors @ (model.theta_hat / model.eigenvalues)
        ) / math.sqrt(10)
        assert predict_kernel_batch(model, x[None, :])[0] == pytest.approx(
            spectral, abs=1e-10
        )

    def test_dimension_mismatch(self):
        X = random_points(14, 5, 3)
        model = fit_kernel_gct(X, np.ones(5), RBF, GctConfig(tau=0.0))
        with pytest.raises(ValueError):
            predict_kernel_batch(model, np.ones((1, 4)))


class TestInSampleError:
    def test_zero_for_fitted_values(self):
        X = random_points(15, 7, 3)
        Y = np.random.default_rng(15).standard_normal(7)
        model = fit_kernel_gct(X, Y, RBF, GctConfig(tau=0.2))
        err = kernel_in_sample_error(model, in_sample_fit(model))
        assert err.total == pytest.approx(0.0, abs=1e-18)

    def test_zero_truth(self):
        X = random_points(16, 6, 2)
        Y = np.random.default_rng(16).standard_normal(6)
        model = fit_kernel_gct(X, Y, RBF, GctConfig(tau=0.3))
        K = gram(X, RBF)
        err = kernel_in_sample_error(model, np.zeros(6))
        assert err.total == pytest.approx(
            float(np.sum((K @ model.dual_coeffs) ** 2)) / 6, abs=1e-10
        )

    def test_span_function_spectral_identity(self):
        X = random_points(17, 8, 3)
        Y = np.random.default_rng(17).standard_normal(8)
        model = fit_kernel_gct(X, Y, RBF, GctConfig(tau=0.25))
        theta_true = np.random.default_rng(18).standard_normal(model.rank)
        f = math.sqrt(8) * model.left_vectors @ theta_true
        err = kernel_in_sample_error(model, f)
        assert err.total == pytest.approx(
            float(np.sum((model.theta_hat - theta_true) ** 2)), abs=1e-10
        )
        assert err.outside_span == pytest.approx(0.0, abs=1e-18)

    def test_total_splits_into_parts(self):
        X = random_points(19, 9, 4)
        Y = np.random.default_rng(19).standard_normal(9)
        model = fit_kernel_gct(X, Y, RBF, GctConfig(tau=0.2))
        f = np.random.default_rng(20).standard_normal(9)
        err = kernel_in_sample_error(model, f)
        assert err.total == pytest.approx(err.canonical + err.outside_span, abs=1e-10)


class TestKernelEffectiveDimension:
    def test_q2_in_span(self):
        X = random_points(21, 6, 3)
        K = gram(X, RBF)
        _, vec = kernel_canonicalize(K)
        f = vec @ np.random.default_rng(21).standard_normal(vec.shape[1])
        assert kernel_effective_dimension(K, f, 2.0) == pytest.approx(1.0, abs=1e-10)

    def test_one_hot_l0(self):
        X = random_points(22, 5, 2)
        K = gram(X, RBF)
        _, vec = kernel_canonicalize(K)
        f = math.sqrt(5) * vec[:, 0]
        assert kernel_effective_dimension(K, f, 0.0) == 1.0

    def test_q1_direct_norm(self):
        X = random_points(23, 7, 3)
        K = gram(X, RBF)
        _, vec = kernel_canonicalize(K)
        f = np.random.default_rng(23).standard_normal(7)
        expected = float(np.sum(np.abs(vec.T @ f))) / float(np.linalg.norm(f))
        assert kernel_effective_dimension(K, f, 1.0) == pytest.approx(expected, abs=1e-10)

    def test_zero_f_rejected(self):
        X = random_points(24, 4, 2)
        with pytest.raises(ValueError):
            kernel_effective_dimension(gram(X, RBF), np.zeros(4), 1.0)


class TestKernelInvariants:
    def test_representer_reproduction(self):
        # fitted vector K alpha equals sqrt(n) V theta_hat
        X = random_points(25, 10, 4)
        Y = np.random.default_rng(25).standard_normal(10)
        model = fit_kernel_gct(X, Y, RBF, GctConfig(tau=0.2, phi=1.0))
        K = gram(X, RBF)
        np.testing.assert_allclose(
            K @ model.dual_coeffs,
            math.sqrt(10) * model.left_vectors @ model.theta_hat,
            atol=1e-10,
        )

    def test_response_scale_equivariance(self):
        X = random_points(26, 8, 3)
        Y = np.random.default_rng(26).standard_normal(8)
        c = 3.5
        base = fit_kernel_gct(X, Y, RBF, GctConfig(tau=0.4, rule=SOFT_RULE))
        big = fit_kernel_gct(X, c * Y, RBF, GctConfig(tau=c * 0.4, rule=SOFT_RULE))
        np.testing.assert_allclose(big.dual_coeffs, c * base.dual_coeffs, atol=1e-10)
        x = np.random.default_rng(27).standard_normal(3)
        assert predict_kernel_batch(big, x[None, :])[0] == pytest.approx(
            c * predict_kernel_batch(base, x[None, :])[0]
        )

    def test_jitter_stability(self):
        X = random_points(28, 8, 3)
        Y = np.random.default_rng(28).standard_normal(8)
        K = gram(X, RBF)
        eig, _ = kernel_canonicalize(K)
        eps = 1e-10 * eig[0] * 8
        base_eig, base_vec = kernel_canonicalize(K)
        jit_eig, jit_vec = kernel_canonicalize(K + eps * np.eye(8))
        assert base_eig.shape == jit_eig.shape
        np.testing.assert_allclose(base_eig, jit_eig, atol=1e-8)

    def test_response_centering_round_trip(self):
        X = random_points(29, 8, 3)
        Y = 5.0 + np.random.default_rng(29).standard_normal(8)
        model = fit_kernel_gct(X, Y, RBF, GctConfig(tau=0.0), center_response=True)
        assert model.response_mean == pytest.approx(float(Y.mean()))
        np.testing.assert_allclose(predict_kernel_batch(model, X), Y, atol=1e-8)
