"""Tests for the thresholding-family estimators and the default threshold."""

import math

import numpy as np
import pytest

from ctreg import (
    Dataset,
    GctConfig,
    HARD_RULE,
    SOFT_RULE,
    canonical_ls,
    canonicalize,
    default_tau,
    fit_gct,
    fit_min_norm_ls,
    fit_nct,
    fit_pcr,
    fit_ridge,
    predict,
    to_theta,
)


def random_dataset(seed, n, d, noise=1.0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    beta = rng.standard_normal(d)
    Y = X @ beta + noise * rng.standard_normal(n)
    return Dataset(X, Y), beta


def spectral_dataset(eigenvalues, theta_ls):
    """Dataset with X/sqrt(n) = diag(sqrt(eigenvalues)) and prescribed
    canonical LS coefficients (diagonal design, n = d)."""
    eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
    theta_ls = np.asarray(theta_ls, dtype=np.float64)
    n = eigenvalues.shape[0]
    X = math.sqrt(n) * np.diag(np.sqrt(eigenvalues))
    Y = math.sqrt(n) * theta_ls
    return Dataset(X, Y)


class TestNct:
    def test_tau_zero_is_pseudoinverse(self):
        ds, _ = random_dataset(0, 20, 30)
        fit = fit_nct(ds, 0.0)
        np.testing.assert_allclose(
            fit.beta, np.linalg.pinv(ds.design) @ ds.response, atol=1e-8
        )

    def test_large_tau_gives_zero(self):
        ds, _ = random_dataset(1, 15, 10)
        dec = canonicalize(ds)
        tau = float(np.max(np.abs(canonical_ls(dec, ds.response))))
        np.testing.assert_array_equal(fit_nct(ds, tau).beta, np.zeros(10))

    def test_hand_soft_thresholding(self):
        ds = spectral_dataset([1.0, 1.0], [3.0, 0.1])
        fit = fit_nct(ds, 1.0)
        np.testing.assert_allclose(fit.theta_hat, [2.0, 0.0], atol=1e-12)


class TestGct:
    def test_phi_zero_soft_equals_nct(self):
        ds, _ = random_dataset(2, 12, 20)
        for tau in (0.0, 0.3, 2.0):
            a = fit_gct(ds, GctConfig(tau=tau, phi=0.0, rule=SOFT_RULE))
            b = fit_nct(ds, tau)
            np.testing.assert_array_equal(a.beta, b.beta)

    def test_tau_zero_identity_any_phi(self):
        ds, _ = random_dataset(3, 10, 6)
        dec = canonicalize(ds)
        theta_ls = canonical_ls(dec, ds.response)
        for phi, rule in ((0.5, SOFT_RULE), (2.0, HARD_RULE)):
            fit = fit_gct(ds, GctConfig(tau=0.0, phi=phi, rule=rule))
            np.testing.assert_allclose(fit.theta_hat, theta_ls, atol=1e-12)

    def test_hand_weighted_hard(self):
        # eigenvalues (4, 1), phi = 1: weighted values (2*0.6, 1*0.6) = (1.2, 0.6)
        ds = spectral_dataset([4.0, 1.0], [0.6, 0.6])
        fit = fit_gct(ds, GctConfig(tau=1.0, phi=1.0, rule=HARD_RULE))
        np.testing.assert_allclose(fit.theta_hat, [0.6, 0.0], atol=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GctConfig(tau=-1.0)
        with pytest.raises(ValueError):
            GctConfig(tau=math.nan)
        with pytest.raises(ValueError):
            GctConfig(tau=1.0, phi=-0.5)

    def test_infinite_tau_sentinel(self):
        ds, _ = random_dataset(4, 10, 8)
        fit = fit_gct(ds, GctConfig(tau=math.inf, phi=1.0))
        np.testing.assert_array_equal(fit.beta, np.zeros(8))


class TestPcr:
    def test_full_components_equals_min_norm(self):
        ds, _ = random_dataset(5, 10, 6)
        dec = canonicalize(ds)
        np.testing.assert_allclose(
            fit_pcr(ds, dec.rank).beta, fit_nct(ds, 0.0).beta, atol=1e-10
        )

    def test_zero_components(self):
        ds, _ = random_dataset(6, 10, 6)
        np.testing.assert_array_equal(fit_pcr(ds, 0).beta, np.zeros(6))

    def test_single_component_matches_pc_regression(self):
        ds, _ = random_dataset(7, 8, 5)
        dec = canonicalize(ds)
        # one-column least squares on the leading principal-component score
        z1 = ds.design @ dec.right_vectors[:, 0]
        coef = float(z1 @ ds.response) / float(z1 @ z1)
        expected = coef * dec.right_vectors[:, 0]
        np.testing.assert_allclose(fit_pcr(ds, 1).beta, expected, atol=1e-9)

    def test_out_of_range(self):
        ds, _ = random_dataset(8, 10, 4)
        with pytest.raises(ValueError):
            fit_pcr(ds, 5)
        with pytest.raises(ValueError):
            fit_pcr(ds, -1)


class TestMinNormLs:
    def test_overdetermined_matches_normal_equations(self):
        ds, _ = random_dataset(9, 30, 5)
        X, Y = ds.design, ds.response
        expected = np.linalg.solve(X.T @ X, X.T @ Y)
        np.testing.assert_allclose(fit_min_norm_ls(ds).beta, expected, atol=1e-8)

    def test_underdetermined_interpolates(self):
        ds, _ = random_dataset(10, 8, 20)
        fit = fit_min_norm_ls(ds)
        np.testing.assert_allclose(ds.design @ fit.beta, ds.response, atol=1e-8)

    def test_duplicate_columns_split_weight(self):
        rng = np.random.default_rng(11)
        col = rng.standard_normal((12, 1))
        X = np.hstack([col, col, rng.standard_normal((12, 2))])
        Y = rng.standard_normal(12)
        beta = fit_min_norm_ls(Dataset(X, Y)).beta
        assert beta[0] == pytest.approx(beta[1], abs=1e-8)
        np.testing.assert_allclose(beta, np.linalg.pinv(X) @ Y, atol=1e-8)


class TestRidge:
    def test_zero_penalty_is_min_norm(self):
        ds, _ = random_dataset(12, 10, 6)
        np.testing.assert_allclose(
            fit_ridge(ds, 0.0).beta, fit_min_norm_ls(ds).beta, atol=1e-10
        )

    def test_huge_penalty_kills_coefficients(self):
        ds, _ = random_dataset(13, 10, 6)
        assert np.linalg.norm(fit_ridge(ds, 1e12).beta) <= 1e-8

    def test_dense_solver_oracle(self):
        ds, _ = random_dataset(14, 25, 7)  # n > d, full rank: no projection needed
        lam = 0.37
        X, Y = ds.design, ds.response
        expected = np.linalg.solve(X.T @ X / 25 + lam * np.eye(7), X.T @ Y / 25)
        np.testing.assert_allclose(fit_ridge(ds, lam).beta, expected, atol=1e-8)

    def test_negative_penalty_rejected(self):
        ds, _ = random_dataset(15, 10, 4)
        with pytest.raises(ValueError):
            fit_ridge(ds, -1.0)


class TestPredict:
    def test_zero_input(self):
        ds, _ = random_dataset(16, 10, 4)
        fit = fit_nct(ds, 0.1)
        np.testing.assert_array_equal(predict(fit, np.zeros((3, 4))), np.zeros(3))

    def test_interpolation(self):
        ds, _ = random_dataset(17, 8, 15)
        fit = fit_nct(ds, 0.0)
        np.testing.assert_allclose(predict(fit, ds.design), ds.response, atol=1e-8)

    def test_matches_matrix_product(self):
        ds, _ = random_dataset(18, 10, 5)
        fit = fit_ridge(ds, 0.2)
        Xnew = np.random.default_rng(18).standard_normal((7, 5))
        np.testing.assert_allclose(predict(fit, Xnew), Xnew @ fit.beta, atol=1e-12)

    def test_dimension_mismatch(self):
        ds, _ = random_dataset(19, 10, 5)
        fit = fit_nct(ds, 0.0)
        with pytest.raises(ValueError):
            predict(fit, np.zeros((3, 6)))


class TestDefaultTau:
    def test_arithmetic_example(self):
        value = default_tau(1.0, 100, 50, 0.05, 2.0)
        assert value == pytest.approx(0.2 * math.sqrt(math.log(2000.0)), rel=1e-9)
        assert value == pytest.approx(0.55139, abs=5e-5)

    def test_zero_sigma(self):
        assert default_tau(0.0, 100, 50, 0.05, 2.0) == 0.0

    def test_phi_scaling(self):
        base = default_tau(1.0, 100, 50, 0.05, 2.0, phi=0.0, lambda1=4.0)
        assert default_tau(1.0, 100, 50, 0.05, 2.0, phi=2.0, lambda1=4.0) == pytest.approx(
            4.0 * base
        )

    def test_range_validation(self):
        with pytest.raises(ValueError):
            default_tau(1.0, 100, 50, 1.5, 2.0)
        with pytest.raises(ValueError):
            default_tau(1.0, 100, 50, 0.05, 3.0)
        with pytest.raises(ValueError):
            default_tau(-1.0, 100, 50, 0.05, 2.0)


class TestInvariants:
    def test_error_identity(self):
        # (bhat - b)^T SigmaHat (bhat - b) = ||theta_hat - theta||^2
        ds, beta = random_dataset(20, 12, 18)
        dec = canonicalize(ds)
        Sigma_hat = ds.design.T @ ds.design / 12
        theta = to_theta(dec, beta)
        for fit in (
            fit_nct(ds, 0.4),
            fit_gct(ds, GctConfig(tau=0.3, phi=1.0, rule=HARD_RULE)),
            fit_pcr(ds, 5),
            fit_ridge(ds, 0.1),
        ):
            diff = fit.beta - beta
            lhs = float(diff @ Sigma_hat @ diff)
            rhs = float(np.sum((fit.theta_hat - theta) ** 2))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_response_scale_equivariance(self):
        ds, _ = random_dataset(21, 10, 14)
        c = 2.7
        scaled = Dataset(ds.design, c * ds.response)
        base = fit_gct(ds, GctConfig(tau=0.5, phi=1.0, rule=SOFT_RULE))
        big = fit_gct(scaled, GctConfig(tau=c * 0.5, phi=1.0, rule=SOFT_RULE))
        np.testing.assert_allclose(big.beta, c * base.beta, atol=1e-10)

    def test_support_nesting(self):
        ds, _ = random_dataset(22, 15, 25)
        for rule in (SOFT_RULE, HARD_RULE):
            prev = None
            for tau in (0.1, 0.5, 1.0, 2.0):
                support = set(
                    np.nonzero(fit_gct(ds, GctConfig(tau=tau, rule=rule)).theta_hat)[0]
                )
                if prev is not None:
                    assert support <= prev
                prev = support

    def test_row_space_membership(self):
        ds, _ = random_dataset(23, 8, 20)
        dec = canonicalize(ds)
        fit = fit_nct(ds, 0.3)
        projected = dec.right_vectors @ (dec.right_vectors.T @ fit.beta)
        np.testing.assert_allclose(fit.beta, projected, atol=1e-10)

    def test_pcr_gct_bridge(self):
        ds, _ = random_dataset(24, 12, 8)
        dec = canonicalize(ds)
        theta_ls = canonical_ls(dec, ds.response)
        for m in range(dec.rank + 1):
            expected = theta_ls.copy()
            expected[m:] = 0.0
            np.testing.assert_array_equal(fit_pcr(ds, m).theta_hat, expected)
