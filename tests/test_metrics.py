"""Tests for error measures, diagnostics, and the risk-bound evaluators."""

import math

import numpy as np
import pytest

from ctreg import (
    Dataset,
    canonicalize,
    effective_rank,
    fit_nct,
    joint_effective_dimension,
    mse_fixed,
    pe_random,
    risk_bound,
    snr,
    threshold_scale,
    to_theta,
    weighted_risk_bound,
)


def random_dataset(seed, n, d, noise=1.0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    beta = rng.standard_normal(d)
    Y = X @ beta + noise * rng.standard_normal(n)
    return Dataset(X, Y), beta


class TestMseFixed:
    def test_equal_coefficients(self):
        ds, beta = random_dataset(0, 10, 5)
        dec = canonicalize(ds)
        assert mse_fixed(beta, beta, dec) == 0.0

    def test_zero_estimator(self):
        ds, beta = random_dataset(1, 10, 5)
        dec = canonicalize(ds)
        theta = to_theta(dec, beta)
        assert mse_fixed(np.zeros(5), beta, dec) == pytest.approx(
            float(theta @ theta), abs=1e-10
        )

    def test_direct_quadratic_form(self):
        ds, beta = random_dataset(2, 12, 6)
        dec = canonicalize(ds)
        beta_hat = np.random.default_rng(2).standard_normal(6)
        Sigma_hat = ds.design.T @ ds.design / 12
        expected = float((beta_hat - beta) @ Sigma_hat @ (beta_hat - beta))
        assert mse_fixed(beta_hat, beta, dec) == pytest.approx(expected, abs=1e-10)

    def test_fit_error_identity(self):
        ds, beta = random_dataset(3, 10, 16)
        dec = canonicalize(ds)
        fit = fit_nct(ds, 0.5)
        theta = to_theta(dec, beta)
        assert mse_fixed(fit.beta, beta, dec) == pytest.approx(
            float(np.sum((fit.theta_hat - theta) ** 2)), abs=1e-10
        )


class TestPeRandom:
    def test_equal_coefficients(self):
        assert pe_random(np.ones(3), np.ones(3), np.eye(3)) == 0.0

    def test_identity_covariance(self):
        d = np.array([1.0, -2.0, 0.5])
        assert pe_random(d, np.zeros(3), np.eye(3)) == pytest.approx(float(d @ d))

    def test_diagonal_hand_case(self):
        Sigma = np.diag([1.0, 0.25])
        assert pe_random(np.array([1.0, 2.0]), np.zeros(2), Sigma) == pytest.approx(2.0)

    def test_non_psd_rejected(self):
        with pytest.raises(ValueError):
            pe_random(np.array([1.0, 1.0]), np.zeros(2), np.diag([1.0, -5.0]))


class TestSnr:
    def test_simple_value(self):
        assert snr(np.array([5.0]), np.array([[1.0]]), 1.0) == pytest.approx(5.0)

    def test_zero_signal(self):
        assert snr(np.zeros(3), np.eye(3), 2.0) == 0.0

    def test_diagonal_hand_case(self):
        Sigma = np.diag([1.0, 4.0])
        assert snr(np.ones(2), Sigma, 1.0) == pytest.approx(math.sqrt(5.0))

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError):
            snr(np.ones(2), np.eye(2), 0.0)


class TestEffectiveRank:
    def test_identity(self):
        assert effective_rank(np.eye(7)) == pytest.approx(7.0)

    def test_rank_one(self):
        assert effective_rank(np.diag([1.0, 0.0, 0.0])) == pytest.approx(1.0)

    def test_hand_sum(self):
        assert effective_rank(np.array([1.0, 0.5, 1 / 3, 0.25])) == pytest.approx(25 / 12)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            effective_rank(np.zeros((3, 3)))


class TestJointEffectiveDimension:
    def test_one_hot_l0(self):
        theta = np.array([1.0])
        assert joint_effective_dimension(theta, 1.0, 0.0) == 1.0

    def test_q2_full_vector_is_one(self):
        theta = np.random.default_rng(4).standard_normal(9)
        norm = float(np.linalg.norm(theta))
        assert joint_effective_dimension(theta, norm, 2.0) == pytest.approx(1.0)

    def test_hand_norms(self):
        # leading block (1, 1): l1 norm 2 over full l2 norm sqrt(2)
        assert joint_effective_dimension(
            np.array([1.0, 1.0]), math.sqrt(2.0), 1.0
        ) == pytest.approx(math.sqrt(2.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            joint_effective_dimension(np.ones(2), 0.0, 1.0)
        with pytest.raises(ValueError):
            joint_effective_dimension(np.ones(2), 1.0, 2.5)

    def test_bounded_by_k_and_monotone(self):
        rng = np.random.default_rng(5)
        theta = rng.standard_normal(12) * rng.random(12)
        norm = float(np.linalg.norm(theta))
        q_grid = np.arange(0.0, 2.01, 0.1)
        for k in range(1, 13):
            values = [
                joint_effective_dimension(theta[:k], norm, float(q)) for q in q_grid
            ]
            assert all(v <= k + 1e-9 for v in values)
            assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))


class TestThresholdScale:
    def test_unit_case(self):
        # log(2 r / delta) = 1 at delta = 2/e, and 2/sqrt(4) = 1
        assert threshold_scale(4, 1, 2.0 / math.e, 1.0) == pytest.approx(1.0)

    def test_alpha_two_square_root(self):
        # log(2 r / delta) = 4 at delta = 2 e^{-4}: (2/2) * 4^(1/2) = 2
        assert threshold_scale(4, 1, 2.0 * math.exp(-4.0), 2.0) == pytest.approx(2.0)

    def test_monotone_in_r(self):
        values = [threshold_scale(100, r, 0.05, 2.0) for r in (5, 10, 50, 200)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            threshold_scale(100, 10, 1.5, 2.0)
        with pytest.raises(ValueError):
            threshold_scale(100, 10, 0.05, 2.5)
        with pytest.raises(ValueError):
            threshold_scale(0, 10, 0.05, 2.0)


class TestRiskBound:
    def test_zero_theta(self):
        report = risk_bound(np.zeros(5), 1.0)
        assert report.sandwich_core == 0.0
        assert report.lq_bound == 0.0

    def test_saturated_minimum(self):
        theta = np.array([2.0, 3.0])
        report = risk_bound(theta, 1.0)
        assert report.sandwich_core == pytest.approx(2.0)
        assert report.lq_bound == pytest.approx(2.0)  # q = 0 attains r * level^2
        assert report.argmin_q == 0.0

    def test_mixed_magnitudes(self):
        report = risk_bound(np.array([3.0, 0.01]), 1.0)
        assert report.sandwich_core == pytest.approx(1.0 + 1e-4)
        assert report.lq_bound >= report.sandwich_core - 1e-12

    def test_core_below_lq_bound_randomized(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            theta = rng.standard_normal(rng.integers(1, 20)) * 10 ** rng.uniform(-2, 2)
            level = float(10 ** rng.uniform(-2, 1))
            report = risk_bound(theta, level)
            assert report.sandwich_core <= report.lq_bound + 1e-9

    def test_level_validation(self):
        with pytest.raises(ValueError):
            risk_bound(np.ones(3), 0.0)

    @pytest.mark.parametrize("level", [math.nan, math.inf])
    def test_non_finite_level_named(self, level):
        # nan once gave sandwich_core = nan beside a finite lq_bound
        message = rf"^level must be a number in \(0, inf\), got {level!r}"
        with pytest.raises(ValueError, match=message):
            risk_bound(np.ones(2), level)
        with pytest.raises(ValueError, match=message):
            weighted_risk_bound(np.ones(2), np.array([2.0, 1.0]), level, 1.0)

    def test_nan_theta_named(self):
        # once gave sandwich_core = nan beside lq_bound = 0.25
        with pytest.raises(ValueError, match=r"^theta must be finite, got nan at index \(1,\)"):
            risk_bound(np.array([1.0, math.nan]), 0.5)

    def test_two_dimensional_theta_named(self):
        with pytest.raises(ValueError, match=r"^theta must be of shape \(r,\), got \(2, 2\)"):
            risk_bound(np.ones((2, 2)), 0.5)


class TestWeightedRiskBound:
    def test_phi_zero_equals_core(self):
        theta = np.random.default_rng(7).standard_normal(6)
        eig = np.sort(np.random.default_rng(8).random(6))[::-1] + 0.1
        report = risk_bound(theta, 0.5)
        assert weighted_risk_bound(theta, eig, 0.5, 0.0) == pytest.approx(
            report.sandwich_core
        )

    def test_zero_theta(self):
        assert weighted_risk_bound(np.zeros(3), np.array([3.0, 2.0, 1.0]), 1.0, 1.0) == 0.0

    def test_hand_weighting(self):
        # weights (lam_1/lam_j)^(1/2) = (1, 2): min(1,10)^2 + min(2,10)^2 = 5
        value = weighted_risk_bound(
            np.array([10.0, 10.0]), np.array([4.0, 1.0]), 1.0, 1.0
        )
        assert value == pytest.approx(5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            weighted_risk_bound(np.ones(2), np.array([1.0, 2.0]), 1.0, 1.0)  # increasing
        with pytest.raises(ValueError):
            weighted_risk_bound(np.ones(2), np.array([1.0, -1.0]), 1.0, 1.0)
        with pytest.raises(ValueError):
            weighted_risk_bound(np.ones(2), np.array([2.0, 1.0]), 1.0, -1.0)

    @pytest.mark.parametrize("phi", [-1.0, math.nan, math.inf])
    def test_bad_phi_rejected(self, phi):
        # the same check as GctConfig's phi
        with pytest.raises(
            ValueError, match=rf"^phi must be a number in \[0, inf\), got {phi!r}"
        ):
            weighted_risk_bound(np.ones(2), np.array([2.0, 1.0]), 1.0, phi)
