"""Tests for the RKHS extension: Gram canonicalization, dual fit, prediction."""

import math
import os
import pickle
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from ctreg import (
    Dataset,
    GctConfig,
    HARD_RULE,
    KernelPredictor,
    KernelSpec,
    NotPositiveSemidefiniteError,
    SOFT_RULE,
    ZeroDesignError,
    apply_rule,
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
from ctreg import RuleKind, ThresholdRule, _blas, cli, kernel
from ctreg.canonical import _pivot_signs
from ctreg.kernel import KERNEL_RANK_REL_TOL, _cross_gram, _symmetrize

LINEAR = KernelSpec(kind="linear")
RBF = KernelSpec(kind="rbf", gamma=0.5)
POLY = KernelSpec(kind="poly", degree=3, coef0=1.0, scale=0.3)
EPS = np.finfo(np.float64).eps


def random_points(seed, n, d):
    return np.random.default_rng(seed).standard_normal((n, d))


class TestKernelSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            KernelSpec(kind="sigmoid")
        with pytest.raises(ValueError):
            KernelSpec(kind="rbf", gamma=-1.0)
        # an integral float is not an integer, as for every integer argument
        for degree in (0, 2.5, math.nan, math.inf, 2.0):
            with pytest.raises(
                ValueError, match=rf"^KernelSpec.degree must be an integer >= 1, got {degree!r}"
            ):
                KernelSpec(kind="poly", degree=degree)
        with pytest.raises(ValueError):
            KernelSpec(kind="poly", scale=0.0)
        for kind, field in [("rbf", "gamma"), ("poly", "coef0"), ("poly", "scale")]:
            for value in (math.nan, math.inf):
                with pytest.raises(
                    ValueError, match=rf"^KernelSpec.{field} must be a number in .*, got {value!r}"
                ):
                    KernelSpec(kind=kind, **{field: value})

    def test_non_numeric_fields_are_named(self):
        # each once raised TypeError from math.isfinite or a comparison
        with pytest.raises(
            ValueError, match=r"^KernelSpec.gamma must be a number in \[0, inf\), got 'a'"
        ):
            KernelSpec("rbf", gamma="a")
        with pytest.raises(
            ValueError, match=r"^KernelSpec.degree must be an integer >= 1, got 'a'"
        ):
            KernelSpec("poly", degree="a")


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

    @pytest.mark.parametrize("n", [1, 255, 256, 600])
    def test_block_symmetrization_is_the_average(self, n):
        # every block pair, the diagonal ones and a short last one included
        M = np.random.default_rng(n).standard_normal((n, n))
        expected = (M + M.T) / 2.0
        _symmetrize(M)
        assert np.array_equal(M, expected)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_named(self, bad):
        X = random_points(4, 5, 3)
        X[3, 2] = bad
        for spec in (LINEAR, RBF):
            with pytest.raises(
                ValueError, match=rf"^points must be finite, got {bad!r} at index \(3, 2\)"
            ):
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

    def test_caller_matrix_unchanged_and_read_only_accepted(self):
        # the decomposition runs on a copy of K, which becomes the vectors
        K = gram(random_points(30, 12, 3), RBF)
        before = K.copy()
        eig, vec = kernel_canonicalize(K)
        np.testing.assert_array_equal(K, before)
        np.testing.assert_allclose(vec * eig @ vec.T, K / 12, atol=1e-14)
        K.flags.writeable = False
        again = kernel_canonicalize(K)
        np.testing.assert_array_equal(K, before)
        assert np.array_equal(again[0], eig) and np.array_equal(again[1], vec)

    @pytest.mark.parametrize("wobble", [0.0, 1e-12], ids=["symmetric", "near-symmetric"])
    def test_same_bits_on_both_routes(self, monkeypatch, wobble):
        # the factors of the copy, and numpy.linalg.eigh without them; a K
        # symmetric only within the tolerance is read in its own order
        n = 300
        K = gram(random_points(31, n, 3), RBF) + np.eye(n)
        K += wobble * np.random.default_rng(31).standard_normal((n, n))
        routes = [kernel_canonicalize(K)]
        monkeypatch.setattr(_blas, "tridiagonal_solver", lambda: None)
        routes.append(kernel_canonicalize(K))
        eig, vec = np.linalg.eigh(K)
        order = np.argsort(-eig, kind="stable")
        expected_vec = vec[:, order] * np.where(
            -vec[:, order].min(axis=0) > vec[:, order].max(axis=0), -1.0, 1.0
        )
        for route_eig, route_vec in routes:
            assert np.array_equal(route_eig, eig[order] / n)
            assert np.array_equal(route_vec, expected_vec)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_response_named(self, bad):
        # the message names the parameter, Y, not the thresholding rule's v
        X = random_points(5, 8, 3)
        Y = np.random.default_rng(5).standard_normal(8)
        Y[4] = bad
        with pytest.raises(
            ValueError, match=rf"^Y must be finite, got {bad!r} at index \(4,\)"
        ):
            fit_kernel_gct(X, Y, RBF, GctConfig(tau=0.1))

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

    @pytest.mark.parametrize("spec", [LINEAR, RBF, POLY], ids=["linear", "rbf", "poly"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_row_is_not_scanned(self, spec, bad):
        # NaN in, NaN out, silently; an infinity may make numpy warn (pytest
        # makes a RuntimeWarning an error), and here it gives NaN too
        X = random_points(15, 8, 3)
        Y = np.random.default_rng(15).standard_normal(8)
        model = fit_kernel_gct(X, Y, spec, GctConfig(tau=0.1), center_response=True)
        rows = random_points(16, 5, 3)
        finite = predict_kernel_batch(model, rows)
        rows[2, 0] = bad
        with warnings.catch_warnings():
            if math.isinf(bad):
                warnings.simplefilter("ignore", RuntimeWarning)
            out = predict_kernel_batch(model, rows)
        np.testing.assert_array_equal(np.delete(out, 2), np.delete(finite, 2))
        assert math.isnan(out[2])


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

    def test_arguments_checked_before_the_decomposition(self, monkeypatch):
        def must_not_run(K):
            raise AssertionError("K was decomposed")

        monkeypatch.setattr(kernel, "eigh_factors", must_not_run)
        X = random_points(24, 4, 2)
        with pytest.raises(ValueError, match=r"^q must be a number in \[0, 2\], got 5.0"):
            kernel_effective_dimension(gram(X, RBF), np.ones(4), 5.0)
        with pytest.raises(ValueError, match=r"^f_values must be of shape \(4,\), got \(3,\)"):
            kernel_effective_dimension(gram(X, RBF), np.ones(3), 1.0)


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


# The Gram formulas as they were before each Gram was built in one buffer.
# gram, _cross_gram and predict_kernel_batch must reproduce them bit for bit.
def _reference_cross_gram(spec, A, B):
    if spec.kind == "linear":
        return A @ B.T
    if spec.kind == "rbf":
        sq = (
            np.sum(A**2, axis=1)[:, None]
            + np.sum(B**2, axis=1)[None, :]
            - 2.0 * A @ B.T
        )
        return np.exp(-spec.gamma * np.maximum(sq, 0.0))
    return (spec.scale * (A @ B.T) + spec.coef0) ** spec.degree


def _reference_gram(points, spec):
    K = _reference_cross_gram(spec, points, points)
    return (K + K.T) / 2.0


def _reference_fit(points, Y, spec, config):
    """(eigenvalues, dual coefficients, theta_hat, left vectors) by the route
    that ran eigh on K / n and formed every vector, with the pivot signs
    that a rule which is not odd needs."""
    n = Y.shape[0]
    eig, vec = np.linalg.eigh(_reference_gram(points, spec) / n)
    r = int(np.count_nonzero(eig > KERNEL_RANK_REL_TOL * eig[-1]))
    order = np.argsort(-eig, kind="stable")[:r]
    eig, vec = eig[order], vec[:, order]
    vec = vec * _pivot_signs(vec)
    weights = eig ** (config.phi / 2.0)
    theta_ls = vec.T @ Y / math.sqrt(n)
    theta_hat = apply_rule(config.rule, weights * theta_ls, config.tau) / weights
    return eig, vec @ (theta_hat / eig) / math.sqrt(n), theta_hat, vec


BIT_SPECS = [LINEAR, RBF, KernelSpec(kind="rbf", gamma=0.0),
             KernelSpec(kind="rbf", gamma=4.0)] + [
    KernelSpec(kind="poly", degree=degree, coef0=coef0, scale=scale)
    for degree in (1, 2, 3, 4)
    for coef0, scale in ((0.0, 1.0), (1.0, 0.3))
]


def _spec_id(spec):
    if spec.kind == "rbf":
        return f"rbf-{spec.gamma}"
    if spec.kind == "poly":
        return f"poly-{spec.degree}-{spec.coef0}-{spec.scale}"
    return spec.kind


class TestGramBitIdentity:
    @pytest.mark.parametrize("spec", BIT_SPECS, ids=_spec_id)
    def test_gram(self, spec):
        # one block of rows, and several with a short last one
        for n in (1, 7, 200, 600):
            X = random_points(31 + n, n, 6)
            assert np.array_equal(gram(X, spec), _reference_gram(X, spec))

    @pytest.mark.parametrize("spec", BIT_SPECS, ids=_spec_id)
    def test_cross_gram_and_predict(self, spec):
        A = random_points(32, 600, 6)
        B = random_points(33, 90, 6)
        for left, right in ((A, B), (B, A), (A, A)):
            assert np.array_equal(
                _cross_gram(spec, left, right), _reference_cross_gram(spec, left, right)
            )
        alpha = np.random.default_rng(34).standard_normal(90)
        model = KernelPredictor(
            training_points=B, dual_coeffs=alpha, kernel=spec, response_mean=None
        )
        assert np.array_equal(
            predict_kernel_batch(model, A), _reference_cross_gram(spec, A, B) @ alpha
        )


# one-sided hard thresholding: not an odd map, so it depends on the signs
# of the canonical basis
ONE_SIDED_RULE = ThresholdRule(
    RuleKind.CUSTOM, custom_fn=lambda z, tau: z if z >= tau else 0.0, custom_constant=3.0
)
RULES = [SOFT_RULE, HARD_RULE, ONE_SIDED_RULE]
RULE_IDS = ["soft", "hard", "one-sided"]


class TestFitMatchesScaledRoute:
    """The factored fit on K then division by n, against eigh of K / n
    with every vector formed.

    The two routes differ only by roundoff.  Eigenvalues agree to
    32 eps lambda_max absolute, and by the accuracy contract of the
    spectral core the dual coefficients, predictions, theta_hat and the
    in-sample fit V theta_hat agree to 32 eps lambda_max / lambda_min
    relative, with lambda_min the smallest retained eigenvalue.
    """

    @pytest.mark.parametrize("spec", [LINEAR, RBF, POLY], ids=_spec_id)
    @pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
    @pytest.mark.parametrize("phi", [0.0, 1.0])
    def test_within_roundoff(self, spec, rule, phi):
        X = random_points(35, 120, 3)
        rng = np.random.default_rng(35)
        Y = np.sin(X[:, 0]) + 0.1 * rng.standard_normal(120)
        config = GctConfig(tau=0.01, phi=phi, rule=rule)
        model = fit_kernel_gct(X, Y, spec, config)
        eig, alpha, theta_hat, vec = _reference_fit(X, Y, spec, config)
        assert model.rank == eig.shape[0]
        assert np.max(np.abs(model.eigenvalues - eig)) <= 32 * EPS * eig[0]
        bound = 32 * EPS * eig[0] / eig[-1]

        def close(actual, expected):
            error = np.linalg.norm(actual - expected)
            assert error <= bound * np.linalg.norm(expected), error

        close(model.dual_coeffs, alpha)
        holdout = rng.standard_normal((50, 3))
        expected = _reference_cross_gram(spec, holdout, X) @ alpha
        close(predict_kernel_batch(model, holdout), expected)
        close(model.theta_hat, theta_hat)
        close(model.left_vectors @ model.theta_hat, vec @ theta_hat)


def _factored_problem(n=300, seed=41):
    X = random_points(seed, n, 3)
    return X, np.sin(X[:, 0]) + 0.1 * np.random.default_rng(seed).standard_normal(n)


def _spy_on_apply(monkeypatch):
    """The shapes of every block that EighFactors.apply gets, in call order."""
    shapes = []
    apply = _blas.EighFactors.apply

    def spy(self, x, transpose=False):
        shapes.append(x.shape)
        return apply(self, x, transpose)

    monkeypatch.setattr(_blas.EighFactors, "apply", spy)
    return shapes


def _spy_on_form(monkeypatch, delay=0.0):
    """The shapes of the vectors that EighFactors.form makes, in call order;
    each call waits ``delay`` seconds first."""
    shapes = []
    form = _blas.EighFactors.form

    def spy(self):
        shapes.append(self.vectors.shape)
        time.sleep(delay)
        return form(self)

    monkeypatch.setattr(_blas.EighFactors, "form", spy)
    return shapes


def _in_sample_reads(model, f):
    """(in_sample_fit, the three kernel_in_sample_error parts) of a model."""
    error = kernel_in_sample_error(model, f)
    return in_sample_fit(model), (error.total, error.canonical, error.outside_span)


def _formed_reads(model, f):
    """The in-sample reads computed here from the formed vectors."""
    n = model.training_points.shape[0]
    vec, theta_hat = model.left_vectors, model.theta_hat
    mean = model.response_mean or 0.0
    fitted = math.sqrt(n) * (vec @ theta_hat)
    theta_true = vec.T @ (f - mean) / math.sqrt(n)
    projection = math.sqrt(n) * (vec @ theta_true)
    parts = (
        float(np.sum((fitted - (f - mean)) ** 2)) / n,
        float(np.sum((theta_hat - theta_true) ** 2)),
        float(np.sum((f - mean - projection) ** 2)) / n,
    )
    return fitted + mean, parts


def _assert_reads_close(actual, expected, model, f):
    """Within the bounds that in_sample_fit and kernel_in_sample_error
    state: 32 n eps |fit| for the fit, and 32 n eps (|f| + |fit|)^2 / n
    for each part of the error, with f and the fit centered."""
    n = model.training_points.shape[0]
    mean = model.response_mean or 0.0
    fit_norm = np.linalg.norm(expected[0] - mean)
    assert np.linalg.norm(actual[0] - expected[0]) <= 32 * n * EPS * fit_norm
    scale = (np.linalg.norm(f - mean) + fit_norm) ** 2 / n
    for part, expected_part in zip(actual[1], expected[1]):
        assert abs(part - expected_part) <= 32 * n * EPS * scale, (part, expected_part)


class TestFactoredFit:
    """The fit reads V only through K's tridiagonal factors: Q^T Y, Z^T,
    Z c and Q; V is formed once, when it is first read."""

    @pytest.mark.parametrize("spec", [LINEAR, RBF, POLY], ids=_spec_id)
    def test_eigenvalues_are_kernel_canonicalize_bits(self, spec):
        X, Y = _factored_problem()
        model = fit_kernel_gct(X, Y, spec, GctConfig(tau=0.01))
        assert np.array_equal(model.eigenvalues, kernel_canonicalize(gram(X, spec))[0])

    @pytest.mark.parametrize("spec", [LINEAR, RBF, POLY], ids=_spec_id)
    def test_left_vectors_are_kernel_canonicalize_bits(self, spec):
        X, Y = _factored_problem()
        model = fit_kernel_gct(X, Y, spec, GctConfig(tau=0.01))
        assert np.array_equal(model.left_vectors, kernel_canonicalize(gram(X, spec))[1])

    def test_no_n_by_n_block_is_transformed(self, monkeypatch, tmp_path):
        shapes = _spy_on_apply(monkeypatch)
        X, Y = _factored_problem()
        for rule in (SOFT_RULE, HARD_RULE):
            model = fit_kernel_gct(X, Y, RBF, GctConfig(tau=0.01, rule=rule))
            predict_kernel_batch(model, X[:5])
        data = tmp_path / "train.csv"
        np.savetxt(data, np.column_stack([X, Y]), delimiter=",", header="a,b,c,y",
                   comments="")
        assert cli.main(["kernel-fit", "--input", str(data), "--response", "y",
                         "--kernel", "rbf:0.5", "--tau", "0.01",
                         "--output", str(tmp_path / "k.json")]) == 0
        # Q^T Y and Q (Z c) per fit, and nothing else
        assert shapes == [(300,)] * 6

    def test_signed_vectors_are_formed_once_on_first_read(self, monkeypatch):
        X, Y = _factored_problem()
        config = GctConfig(tau=0.01)
        serial = in_sample_fit(fit_kernel_gct(X, Y, RBF, config))
        model = fit_kernel_gct(X, Y, RBF, config)
        shapes = _spy_on_form(monkeypatch, delay=0.05)
        readers = 4  # of each kind, more than the cores of a 2-core machine
        barrier = threading.Barrier(2 * readers, timeout=10)
        reads, fits = [], []

        def read():
            barrier.wait()
            reads.append(model.left_vectors)

        def read_fit():
            # on the factors, or on V, as the other readers leave it
            barrier.wait()
            fits.append(in_sample_fit(model))

        threads = [threading.Thread(target=read) for _ in range(readers)]
        threads += [threading.Thread(target=read_fit) for _ in range(readers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert shapes == [(300, 300)]
        assert len(reads) == len(fits) == readers
        assert all(read is model.left_vectors for read in reads)
        for fit in fits:
            assert np.linalg.norm(fit - serial) <= 32 * 300 * EPS * np.linalg.norm(serial)
        model.theta_hat  # reads the formed signs
        assert shapes == [(300, 300)]
        # each column's largest-magnitude entry is positive
        vec = model.left_vectors
        assert np.all(vec[np.argmax(np.abs(vec), axis=0), np.arange(model.rank)] > 0)

    def test_custom_rule_forms_the_vectors_during_the_fit(self, monkeypatch):
        applied, formed = _spy_on_apply(monkeypatch), _spy_on_form(monkeypatch)
        X, Y = _factored_problem()
        model = fit_kernel_gct(X, Y, RBF, GctConfig(tau=0.01, rule=ONE_SIDED_RULE))
        # Q^T Y, then V formed once; alpha is read from the formed vectors
        assert applied == [(300,)] and formed == [(300, 300)]
        model.left_vectors
        assert formed == [(300, 300)]

    @pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
    def test_pickle_round_trip(self, read_first):
        X, Y = _factored_problem()
        model = fit_kernel_gct(X, Y, RBF, GctConfig(tau=0.01, phi=1.0), center_response=True)
        if read_first:
            model.left_vectors  # forms V before the pickle does
        f = np.cos(X[:, 1])
        before = _in_sample_reads(model, f)
        copy = pickle.loads(pickle.dumps(model))
        for name in ("dual_coeffs", "eigenvalues", "left_vectors", "theta_hat"):
            assert np.array_equal(getattr(copy, name), getattr(model, name)), name
        # the pickle forms V, so both now read it; an unread model read the
        # factors before
        reads = _in_sample_reads(copy, f)
        assert np.array_equal(reads[0], in_sample_fit(model))
        assert reads[1] == _in_sample_reads(model, f)[1]
        _assert_reads_close(reads, before, model, f)
        assert copy.response_mean == model.response_mean and copy.config == model.config
        assert np.array_equal(predict_kernel_batch(copy, X[:7]), predict_kernel_batch(model, X[:7]))

    def test_in_sample_reads_of_an_unread_model_form_nothing(self, monkeypatch):
        formed = _spy_on_form(monkeypatch)
        X, Y = _factored_problem()
        for rule in (SOFT_RULE, HARD_RULE):
            model = fit_kernel_gct(X, Y, RBF, GctConfig(tau=0.01, phi=1.0, rule=rule))
            _in_sample_reads(model, np.cos(X[:, 1]))
        assert formed == []

    @pytest.mark.parametrize("route", ["factors", "eigh"])
    @pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
    def test_in_sample_reads_agree_with_the_formed_vectors(self, monkeypatch, rule, route):
        # a soft or hard model is read on its factors first, then on V; a
        # custom rule's fit has formed V already
        if route == "eigh":
            monkeypatch.setattr(_blas, "tridiagonal_solver", lambda: None)
        X, Y = _factored_problem()
        f = np.cos(X[:, 1]) + 0.3 * X[:, 2]
        config = GctConfig(tau=0.01, phi=1.0, rule=rule)
        model = fit_kernel_gct(X, Y, RBF, config, center_response=True)
        unread = _in_sample_reads(model, f)
        expected = _formed_reads(model, f)
        _assert_reads_close(unread, expected, model, f)
        _assert_reads_close(_in_sample_reads(model, f), expected, model, f)

    @pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
    def test_fallback_agrees_within_roundoff(self, monkeypatch, rule):
        # numpy.linalg.eigh with Q the identity, read by the same fit code
        X, Y = _factored_problem()
        config = GctConfig(tau=0.01, phi=1.0, rule=rule)
        factored = fit_kernel_gct(X, Y, RBF, config)
        monkeypatch.setattr(_blas, "tridiagonal_solver", lambda: None)
        fallback = fit_kernel_gct(X, Y, RBF, config)
        eig = fallback.eigenvalues
        # numpy.linalg.eigh is dsyevd, whose steps the factors and the
        # forming step repeat
        assert np.array_equal(factored.eigenvalues, eig)
        assert np.array_equal(factored.left_vectors, fallback.left_vectors)
        assert np.array_equal(fallback.left_vectors, kernel_canonicalize(gram(X, RBF))[1])
        bound = 32 * EPS * eig[0] / eig[-1]
        for name in ("dual_coeffs", "theta_hat"):
            expected = getattr(fallback, name)
            error = np.linalg.norm(getattr(factored, name) - expected)
            assert error <= bound * np.linalg.norm(expected), name


def _peak_doubles(fn, *args):
    """Peak of the numpy allocations made while fn runs, in float64 units.

    tracemalloc sees every array numpy allocates: the ``dstedc`` and
    forming workspaces and the packed and unpacked reflectors are numpy
    arrays, and are counted.  It does not see which pages are touched (see
    TestResidentPeak).
    """
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return (tracemalloc.get_traced_memory()[1] - base) / 8
    finally:
        tracemalloc.stop()


class TestMemory:
    """Each Gram is built in its one buffer, with no second matrix of its
    size, and the fit factors that buffer with no copy of K."""

    N = 300

    @pytest.mark.parametrize("spec", [LINEAR, RBF, POLY], ids=_spec_id)
    def test_gram(self, spec):
        # K and kernel._BLOCK rows of temporaries, 1.08-1.27 n^2 at n = 1000
        # (a second n^2 array made it 2 n^2)
        n = 1000
        X = random_points(36, n, 5)
        assert _peak_doubles(gram, X, spec) <= 1.35 * n**2

    @pytest.mark.parametrize("spec", [LINEAR, RBF, POLY], ids=_spec_id)
    def test_predict_kernel_batch(self, spec):
        # the m x N kernel matrix and kernel._BLOCK rows of temporaries,
        # 1.0-1.32 N m at m = 1000 (the rbf kernel's second m x N array made
        # it 2.06 N m)
        m = 1000
        model = KernelPredictor(
            training_points=random_points(37, self.N, 5),
            dual_coeffs=np.random.default_rng(37).standard_normal(self.N),
            kernel=spec,
            response_mean=1.0,
        )
        X = random_points(38, m, 5)
        assert _peak_doubles(predict_kernel_batch, model, X) <= 1.4 * self.N * m

    @pytest.mark.parametrize("spec", [LINEAR, RBF, POLY], ids=_spec_id)
    def test_fit_kernel_gct(self, spec):
        # K, which ends up holding Z, the packed reflectors and the dstedc
        # workspace: 2.53-2.56 N^2 (Z in a buffer of its own makes it
        # 3.5 N^2)
        X = random_points(39, self.N, 5)
        Y = np.random.default_rng(39).standard_normal(self.N)
        peak = _peak_doubles(fit_kernel_gct, X, Y, spec, GctConfig(tau=0.0))
        assert peak <= 2.75 * self.N**2


# fits a small problem, so that the pages of every code path and of
# OpenBLAS's buffers are resident, then prints the growth of the peak
# resident size over one fit at n = int(sys.argv[1]), in float64 units;
# with sys.argv[2] == "predict", over the fit and a prediction at n new
# points while the model is alive.  The peak is VmHWM, which is ru_maxrss
# without what a child inherits: a spawned process's ru_maxrss starts at
# its parent's resident size.
RSS_SCRIPT = """
import sys
import numpy as np
from ctreg import GctConfig, KernelSpec, fit_kernel_gct, predict_kernel_batch

def peak_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

def fit(n, predict):
    rng = np.random.default_rng(n)
    X = rng.standard_normal((n, 5))
    model = fit_kernel_gct(
        X, np.sin(X[:, 0]), KernelSpec("rbf", gamma=0.5), GctConfig(tau=0.01)
    )
    if predict:
        predict_kernel_batch(model, rng.standard_normal((n, 5)))
    return model

fit(400, True)
n, predict = int(sys.argv[1]), sys.argv[2] == "predict"
before = peak_kib()
fit(n, predict)
print((peak_kib() - before) * 1024 / 8)
"""


def _resident_growth(n, step):
    """The growth of the peak resident size over RSS_SCRIPT's step ("fit"
    or "predict") at n points, in units of n^2 floats."""
    src = os.path.dirname(os.path.dirname(kernel.__file__))
    done = subprocess.run(
        [sys.executable, "-c", RSS_SCRIPT, str(n), step],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return float(done.stdout) / n**2


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="needs /proc/self/status (Linux)"
)
class TestResidentPeak:
    """The resident peak of a fit, LAPACK's workspaces included: K, the
    packed reflectors (n^2 / 2) and the dstedc workspace of about n^2
    floats, with Z written over K, where a copy of K for numpy.linalg.eigh
    and its separate output for the vectors would add 2 n^2 more.  At
    n = 1500 and 2000 the growth measured 2.62-2.64 n^2 (3.10-3.13 n^2
    with Z in its own buffer and the reflectors left in K, 3.05 n^2 when
    dsyevd formed the vectors in K, and 4.81 n^2 through
    numpy.linalg.eigh)."""

    N = 1500

    def test_fit_kernel_gct(self):
        growth = _resident_growth(self.N, "fit")
        assert growth <= 2.8, growth

    def test_predict_while_the_model_is_alive(self):
        # the model holds Z and the packed reflectors, 1.5 n^2, next to the
        # n x n cross kernel matrix of the prediction, so the peak stays the
        # fit's: 2.63-2.64 n^2 at n = 1500 and 2000.  A model that held Z
        # and K's buffer of reflectors measured 3.10-3.12 n^2.
        growth = _resident_growth(self.N, "predict")
        assert growth <= 2.8, growth
