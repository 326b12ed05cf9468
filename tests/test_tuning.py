"""Tests for the exact solution-path K-fold cross-validation."""

import math
import os
import signal
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctreg import (
    Dataset,
    GctConfig,
    HARD_RULE,
    PolyDecay,
    SOFT_RULE,
    ScenarioSpec,
    ZeroDesignError,
    breakpoints,
    canonical_ls,
    canonicalize,
    cv_error_at,
    fold_assignment,
    grid_cv_oracle,
    joint_cv,
    kfold_cv,
    kfold_cv_pcr,
    kfold_cv_ridge,
    fit_gct,
    fit_min_norm_ls,
    generate_scenario,
    run_experiment,
)
from ctreg import _blas, tuning
from ctreg.estimators import fit_pcr, fit_ridge
from ctreg.tuning import (
    TIE_RTOL,
    _Fold,
    _FoldSpectra,
    _fold_errors_on_grid,
    _fold_spectra,
    _path_cv,
)


def no_folds(*args):
    raise AssertionError("no fold may be decomposed")


def random_dataset(seed, n, d, noise=1.0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    beta = rng.standard_normal(d)
    Y = X @ beta + noise * rng.standard_normal(n)
    return Dataset(X, Y)


def spectral_setup(eigenvalues, theta_ls):
    eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
    theta_ls = np.asarray(theta_ls, dtype=np.float64)
    n = eigenvalues.shape[0]
    X = math.sqrt(n) * np.diag(np.sqrt(eigenvalues))
    dec = canonicalize(Dataset(X, np.zeros(n)))
    return dec, theta_ls


class TestBreakpoints:
    def test_unweighted(self):
        dec, theta = spectral_setup([1.0, 1.0, 1.0], [3.0, -1.0, 0.0])
        np.testing.assert_allclose(breakpoints(dec, theta, 0.0), [0.0, 1.0, 3.0])

    def test_weighted(self):
        # eigenvalue weights lam^(1/2) = (2, 1, 1): magnitudes (6, 1, 0)
        dec, theta = spectral_setup([4.0, 1.0, 1.0], [3.0, -1.0, 0.0])
        np.testing.assert_allclose(
            breakpoints(dec, theta, 1.0), [0.0, 1.0, 6.0], atol=1e-12
        )

    def test_zero_theta(self):
        dec, theta = spectral_setup([1.0, 1.0], [0.0, 0.0])
        np.testing.assert_array_equal(breakpoints(dec, theta, 0.0), [0.0])


class TestFoldAssignment:
    def test_sizes(self):
        for n, L in ((10, 3), (20, 4), (17, 5), (7, 7)):
            assignment = fold_assignment(n, L, seed=0)
            sizes = np.bincount(assignment, minlength=L)
            assert sizes.sum() == n
            assert set(sizes) <= {n // L, n // L + 1}

    def test_determinism(self):
        a = fold_assignment(30, 5, seed=42)
        b = fold_assignment(30, 5, seed=42)
        np.testing.assert_array_equal(a, b)
        c = fold_assignment(30, 5, seed=43)
        assert not np.array_equal(a, c)

    def test_invalid_folds(self):
        with pytest.raises(ValueError):
            fold_assignment(10, 1, seed=0)
        with pytest.raises(ValueError):
            fold_assignment(5, 6, seed=0)

    @pytest.mark.parametrize(
        "L, seed, name",
        [
            (2.5, 0, "L"),
            (3.0, 0, "L"),
            ("3", 0, "L"),
            (None, 0, "L"),
            (3, 1.5, "seed"),
            (3, 1.0, "seed"),
            (3, None, "seed"),
            (3, -1, "seed"),
            (3, np.int64(-1), "seed"),
        ],
    )
    def test_bad_split_is_named(self, monkeypatch, L, seed, name):
        with pytest.raises(ValueError, match=rf"^{name} must be"):
            fold_assignment(12, L, seed)
        # the tuners reject it before the memo is read or a fold decomposed
        ds = random_dataset(42, 12, 5)
        kfold_cv(ds, 3, seed=0)
        monkeypatch.setattr(tuning, "_fold", no_folds)
        for tune in (
            lambda: kfold_cv(ds, L, seed=seed),
            lambda: joint_cv(ds, L, [0.0], seed=seed),
            lambda: kfold_cv_pcr(ds, L, seed=seed),
            lambda: kfold_cv_ridge(ds, L, [1.0], seed=seed),
            lambda: cv_error_at(ds, L, 0.0, SOFT_RULE, seed, 0.0),
            lambda: grid_cv_oracle(ds, L, 0.0, SOFT_RULE, [0.0], seed),
        ):
            with pytest.raises(ValueError, match=rf"^{name} must be"):
                tune()

    def test_numpy_integers_give_the_same_split(self, monkeypatch):
        expected = fold_assignment(30, 5, seed=42)
        for L, seed in ((np.int64(5), 42), (5, np.int32(42)), (np.uint8(5), np.uint64(42))):
            np.testing.assert_array_equal(fold_assignment(30, L, seed), expected)
        ds = random_dataset(43, 30, 8)
        result = kfold_cv(ds, 5, seed=42)
        # one memo entry: the numpy spelling of the split is a hit
        monkeypatch.setattr(tuning, "_fold", no_folds)
        again = kfold_cv(ds, np.int64(5), seed=np.int32(42))
        assert again.tau_cv == result.tau_cv
        np.testing.assert_array_equal(again.fold_assignment, expected)


class TestKfoldCv:
    def test_zero_response_tie_break(self):
        # every tau gives the same (zero) fit; the largest candidate wins,
        # and with no signal the only breakpoint is 0
        X = np.random.default_rng(0).standard_normal((12, 4))
        result = kfold_cv(Dataset(X, np.zeros(12)), 3)
        assert result.tau_cv == max(float(bp.max()) for bp in result.fold_breakpoints)
        assert result.tau_cv == 0.0

    def test_exact_tie_across_segments(self):
        # leave-one-out on a diagonal design: each held-out row loads on the
        # one column its training block lacks, so every validation prediction
        # is 0 and every tau ties; the largest candidate wins
        Y = np.array([1.0, -2.0, 0.5, 3.0, -1.0, 2.0])
        ds = Dataset(np.diag(np.arange(1.0, 7.0)), Y)
        soft = kfold_cv(ds, 6)
        assert len(set(soft.path_segments[:, 3])) == 1
        assert len(soft.path_segments) > 1
        assert soft.tau_cv == max(float(bp.max()) for bp in soft.fold_breakpoints)
        assert kfold_cv(ds, 6, rule=HARD_RULE).tau_cv == math.inf
        assert soft.cv_error_at_tau == float(np.mean(Y**2))

    @pytest.mark.parametrize("delta, tied", [(1e-15, True), (1e-13, False)])
    def test_tie_tolerance_edge(self, delta, tied):
        # perturbing the diagonal design spreads the tied errors by about
        # delta * C0: below TIE_RTOL * C0 they still tie, above it they don't
        Y = np.array([1.0, -2.0, 0.5, 3.0, -1.0, 2.0])
        noise = np.random.default_rng(0).standard_normal((6, 6))
        ds = Dataset(np.diag(np.arange(1.0, 7.0)) + delta * noise, Y)
        soft = kfold_cv(ds, 6)
        errors = soft.path_segments[:, 3]
        zero_error = float(np.mean(Y**2))
        assert (np.ptp(errors) <= TIE_RTOL * zero_error) == tied
        top = max(float(bp.max()) for bp in soft.fold_breakpoints)
        assert (soft.tau_cv == top) == tied
        assert (kfold_cv(ds, 6, rule=HARD_RULE).tau_cv == math.inf) == tied

    def test_repeated_magnitudes_within_fold(self):
        # fold 0 trains on 2 I_4 with responses +-1: all four |theta_j| are
        # 1/2 and leave the support together, and its zero validation response
        # is fit exactly once they have; fold 1 trains on zero responses
        assignment = fold_assignment(8, 2, seed=0)
        X = np.empty((8, 4))
        X[assignment == 0] = X[assignment == 1] = 2.0 * np.eye(4)
        Y = np.zeros(8)
        Y[assignment == 1] = [1.0, -1.0, 1.0, -1.0]
        ds = Dataset(X, Y)
        for rule, tau in ((SOFT_RULE, 0.5), (HARD_RULE, math.inf)):
            result = kfold_cv(ds, 2, rule=rule, seed=0)
            np.testing.assert_array_equal(result.fold_breakpoints[0], [0.0, 0.5])
            assert result.tau_cv == tau
            assert result.cv_error_at_tau == 0.5

    def test_leave_one_out_beats_grid(self):
        ds = random_dataset(1, 20, 10)
        result = kfold_cv(ds, 20, seed=7)
        hi = max(float(bp.max()) for bp in result.fold_breakpoints)
        grid = np.concatenate(([0.0], np.logspace(math.log10(hi) - 6, math.log10(hi), 10_000)))
        _, grid_err = grid_cv_oracle(ds, 20, 0.0, SOFT_RULE, grid, seed=7)
        assert result.cv_error_at_tau <= grid_err + 1e-10

    def test_exact_path_and_reevaluation(self):
        ds = random_dataset(2, 30, 50)
        result = kfold_cv(ds, 5, seed=3)
        hi = max(float(bp.max()) for bp in result.fold_breakpoints)
        grid = np.linspace(0.0, hi * 1.05, 10_000)
        _, grid_err = grid_cv_oracle(ds, 5, 0.0, SOFT_RULE, grid, seed=3)
        assert result.cv_error_at_tau <= grid_err + 1e-10
        re_eval = cv_error_at(ds, 5, 0.0, SOFT_RULE, 3, result.tau_cv)
        assert re_eval == pytest.approx(result.cv_error_at_tau, abs=1e-12)

    def test_hard_rule_matches_breakpoint_grid(self):
        ds = random_dataset(3, 25, 8, noise=0.5)
        result = kfold_cv(ds, 5, rule=HARD_RULE, seed=1)
        finite = result.candidate_set[np.isfinite(result.candidate_set)]
        tau_g, err_g = grid_cv_oracle(ds, 5, 0.0, HARD_RULE, finite, seed=1)
        assert result.cv_error_at_tau <= err_g + 1e-12
        if math.isfinite(result.tau_cv):
            assert result.tau_cv == tau_g
            assert result.cv_error_at_tau == pytest.approx(err_g, abs=1e-12)

    def test_determinism(self):
        ds = random_dataset(4, 20, 10)
        a = kfold_cv(ds, 4, seed=11)
        b = kfold_cv(ds, 4, seed=11)
        assert a.tau_cv == b.tau_cv
        np.testing.assert_array_equal(a.fold_assignment, b.fold_assignment)

    def test_candidate_count_bound(self):
        ds = random_dataset(5, 30, 50)
        L = 5
        result = kfold_cv(ds, L, seed=0)
        for bp in result.fold_breakpoints:
            assert bp.shape[0] <= min(30, 50) + 1
        assert result.candidate_set.shape[0] <= L * min(30, 50) + 2

    def test_large_tau_is_zero_estimator_error(self):
        ds = random_dataset(6, 18, 6)
        result = kfold_cv(ds, 3, seed=2)
        hi = max(float(bp.max()) for bp in result.fold_breakpoints)
        assignment = result.fold_assignment
        expected = 0.0
        for fold_id in range(3):
            y_val = ds.response[assignment == fold_id]
            expected += float(np.mean(y_val**2)) / 3
        assert cv_error_at(ds, 3, 0.0, SOFT_RULE, 2, hi * 2) == pytest.approx(expected)

    def test_custom_rule_left_to_the_fit(self):
        # the exact path is derived for the soft and hard maps only: the
        # tuners reject a custom rule, and fit_gct still applies it
        from ctreg import RuleKind, ThresholdRule
        from ctreg.thresholding import soft as soft_scalar

        rule = ThresholdRule(RuleKind.CUSTOM, custom_fn=soft_scalar, custom_constant=3.0)
        ds = random_dataset(7, 15, 5)
        for tune in (
            lambda: kfold_cv(ds, 3, rule=rule, seed=0),
            lambda: joint_cv(ds, 3, [0.0, 1.0], rule=rule, seed=0),
            lambda: grid_cv_oracle(ds, 3, 0.0, rule, np.array([0.0, 0.1]), seed=0),
        ):
            with pytest.raises(ValueError, match="got custom"):
                tune()
        for phi in (0.0, 1.0):
            custom = fit_gct(ds, GctConfig(tau=0.2, phi=phi, rule=rule)).beta
            soft = fit_gct(ds, GctConfig(tau=0.2, phi=phi)).beta
            assert np.any(soft != 0.0)
            np.testing.assert_array_equal(custom, soft)


class TestGridOracle:
    def test_single_point_grid(self):
        ds = random_dataset(8, 12, 4)
        tau, err = grid_cv_oracle(ds, 3, 0.0, SOFT_RULE, np.array([0.0]), seed=5)
        assert tau == 0.0
        assert err == pytest.approx(cv_error_at(ds, 3, 0.0, SOFT_RULE, 5, 0.0))

    def test_dominated_by_exact_path(self):
        ds = random_dataset(9, 25, 15)
        result = kfold_cv(ds, 5, seed=9)
        for grid in (np.linspace(0, 3, 50), np.logspace(-3, 1, 200)):
            _, err = grid_cv_oracle(ds, 5, 0.0, SOFT_RULE, grid, seed=9)
            assert result.cv_error_at_tau <= err + 1e-12

    def test_empty_grid(self):
        ds = random_dataset(10, 10, 3)
        with pytest.raises(ValueError):
            grid_cv_oracle(ds, 2, 0.0, SOFT_RULE, np.array([]), seed=0)

    @pytest.mark.parametrize("tau", [-1.0, -math.inf, math.nan])
    def test_bad_tau_rejected_before_any_fold(self, monkeypatch, tau):
        # the domain cv_error_at checks, before a fold is decomposed
        ds = random_dataset(10, 10, 3)
        monkeypatch.setattr(tuning, "_fold_spectra", no_folds)
        domain = rf"must be a number in \[0, inf\], got {tau!r}$"
        with pytest.raises(ValueError, match=f"^tau {domain}"):
            cv_error_at(ds, 2, 0.0, SOFT_RULE, 0, tau)
        for rule in (SOFT_RULE, HARD_RULE):
            with pytest.raises(ValueError, match=rf"^grid\[1\] {domain}"):
                grid_cv_oracle(ds, 2, 0.0, rule, np.array([0.0, tau, 1.0]), seed=0)

    @pytest.mark.parametrize("grid", [[[1.0, 2.0]], [[1.0], [2.0]], 1.0])
    def test_grid_must_be_1d_before_any_fold(self, monkeypatch, grid):
        calls = []
        decompose = tuning._fold

        def fold(*args):
            calls.append(args[-1])
            return decompose(*args)

        monkeypatch.setattr(tuning, "_fold", fold)
        ds = random_dataset(44, 12, 5)
        with pytest.raises(ValueError, match=r"^lambda_grid must be a nonempty 1-D grid, got"):
            kfold_cv_ridge(ds, 3, grid)
        with pytest.raises(ValueError, match=r"^grid must be a nonempty 1-D grid, got"):
            grid_cv_oracle(ds, 3, 0.0, SOFT_RULE, grid, 0)
        assert calls == []
        assert "fold_spectra" not in ds._memo
        kfold_cv_ridge(ds, 3, np.ravel(grid))
        assert sorted(calls) == [0, 1, 2]

    def test_infinite_tau_is_the_zero_estimator(self):
        ds = random_dataset(10, 10, 3)
        tau, err = grid_cv_oracle(ds, 2, 0.0, SOFT_RULE, np.array([math.inf]), 0)
        assert tau == math.inf
        assert err == pytest.approx(cv_error_at(ds, 2, 0.0, SOFT_RULE, 0, math.inf))


# a zero response makes every candidate's CV error exactly 0, so each tuner's
# tie rule decides alone; Gram route (n_t < d) and tall route (n_t > d)
TIE_SHAPES = [(30, 60), (60, 10)]


def zero_response(n, d):
    return Dataset(np.random.default_rng(n * d).standard_normal((n, d)), np.zeros(n))


@pytest.mark.parametrize("n, d", TIE_SHAPES)
class TestExactTies:
    def test_pcr_goes_to_the_smaller_model(self, n, d):
        assert kfold_cv_pcr(zero_response(n, d), 5) == (0, 0.0)

    def test_ridge_goes_to_the_larger_penalty(self, n, d):
        grid = np.array([1.0, 0.01, 100.0, 0.1])
        assert kfold_cv_ridge(zero_response(n, d), 5, grid) == (100.0, 0.0)

    @pytest.mark.parametrize("rule", [SOFT_RULE, HARD_RULE])
    @pytest.mark.parametrize("grid", [[0.0, 0.5, 1.0], [1.0, 0.25, 0.5]])
    def test_joint_cv_goes_to_the_smaller_phi(self, n, d, rule, grid):
        phi, _, result = joint_cv(zero_response(n, d), 5, grid, rule)
        assert phi == min(grid)
        assert result.cv_error_at_tau == 0.0

    @pytest.mark.parametrize("rule", [SOFT_RULE, HARD_RULE])
    def test_grid_oracle_goes_to_the_largest_tau(self, n, d, rule):
        grid = np.array([0.5, 0.0, 2.0, 1.0])
        assert grid_cv_oracle(zero_response(n, d), 5, 0.0, rule, grid, 0) == (2.0, 0.0)


class TestJointCv:
    def test_matches_two_separate_calls(self):
        ds = random_dataset(11, 24, 12)
        phi, tau, result = joint_cv(ds, 4, [0.0, 1.0], seed=6)
        r0 = kfold_cv(ds, 4, 0.0, SOFT_RULE, seed=6)
        r1 = kfold_cv(ds, 4, 1.0, SOFT_RULE, seed=6)
        best = min(r0.cv_error_at_tau, r1.cv_error_at_tau)
        assert result.cv_error_at_tau == best
        assert phi == (0.0 if r0.cv_error_at_tau <= r1.cv_error_at_tau else 1.0)

    def test_empty_grid(self):
        ds = random_dataset(12, 10, 4)
        with pytest.raises(ValueError):
            joint_cv(ds, 3, [], seed=0)

    @pytest.mark.parametrize("phi", [-1.0, math.nan, math.inf])
    def test_bad_phi_rejected(self, monkeypatch, phi):
        # the same check as GctConfig's phi, before a fold is decomposed
        ds = random_dataset(12, 10, 4)
        monkeypatch.setattr(tuning, "_fold", no_folds)
        domain = rf"must be a number in \[0, inf\), got {phi!r}$"
        with pytest.raises(ValueError, match=f"^phi {domain}"):
            kfold_cv(ds, 3, phi)
        with pytest.raises(ValueError, match=rf"^phi_grid\[1\] {domain}"):
            joint_cv(ds, 3, [0.0, phi])
        with pytest.raises(ValueError, match=f"^phi {domain}"):
            cv_error_at(ds, 3, phi, SOFT_RULE, 0, 0.1)
        with pytest.raises(ValueError, match=f"^phi {domain}"):
            grid_cv_oracle(ds, 3, phi, SOFT_RULE, np.array([0.0, 0.1]), 0)
        with pytest.raises(ValueError, match=f"^GctConfig.phi {domain}"):
            GctConfig(tau=0.0, phi=phi)
        assert ds._memo == {}


class TestBaselineCv:
    def test_pcr_matches_brute_force(self):
        ds = random_dataset(13, 20, 6)
        m_star, err_star = kfold_cv_pcr(ds, 4, seed=8)
        # brute force: refit per fold via the library estimators
        assignment = fold_assignment(20, 4, seed=8)
        max_m = m_star
        errors = {}
        dec_rank = min(
            canonicalize(
                Dataset(ds.design[assignment != l], ds.response[assignment != l])
            ).rank
            for l in range(4)
        )
        for m in range(dec_rank + 1):
            total = 0.0
            for l in range(4):
                train = Dataset(ds.design[assignment != l], ds.response[assignment != l])
                fit = fit_pcr(train, m)
                val_X = ds.design[assignment == l]
                val_y = ds.response[assignment == l]
                total += float(np.mean((val_y - val_X @ fit.beta) ** 2)) / 4
            errors[m] = total
        brute_m = min(errors, key=lambda m: (errors[m], m))
        assert m_star == brute_m
        assert err_star == pytest.approx(errors[brute_m], abs=1e-10)

    def test_ridge_matches_brute_force(self):
        ds = random_dataset(14, 18, 9)
        grid = np.logspace(-4, 1, 12)
        lam_star, err_star = kfold_cv_ridge(ds, 3, grid, seed=4)
        assignment = fold_assignment(18, 3, seed=4)
        best = (math.nan, math.inf)
        for lam in np.sort(grid):
            total = 0.0
            for l in range(3):
                train = Dataset(ds.design[assignment != l], ds.response[assignment != l])
                fit = fit_ridge(train, float(lam))
                val_X = ds.design[assignment == l]
                val_y = ds.response[assignment == l]
                total += float(np.mean((val_y - val_X @ fit.beta) ** 2)) / 3
            if total <= best[1]:
                best = (float(lam), total)
        assert lam_star == pytest.approx(best[0])
        assert err_star == pytest.approx(best[1], abs=1e-10)

    @pytest.mark.parametrize("lam", [-1.0, -math.inf, math.nan])
    def test_ridge_bad_lambda_rejected_before_any_fold(self, monkeypatch, lam):
        # fit_ridge's domain, before a fold is decomposed
        ds = random_dataset(14, 18, 9)
        domain = rf"must be a number in \[0, inf\], got {lam!r}$"
        with pytest.raises(ValueError, match=f"^lambda_reg {domain}"):
            fit_ridge(ds, lam)
        monkeypatch.setattr(tuning, "_fold_spectra", no_folds)
        with pytest.raises(ValueError, match=rf"^lambda_grid\[0\] {domain}"):
            kfold_cv_ridge(ds, 3, np.array([lam, 1.0]), seed=4)
        assert "fold_spectra" not in ds._memo


@st.composite
def cv_problems(draw):
    """Small random CV problems, including the degenerate shapes."""
    n = draw(st.integers(4, 14))
    d = draw(st.integers(1, 10))
    L = draw(st.one_of(st.just(n), st.integers(2, n)))
    shape = draw(
        st.sampled_from(
            ["plain", "duplicate_columns", "duplicate_rows", "zero_response", "rank_one"]
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((n, d))
    if shape == "duplicate_columns":
        X[:, 1::2] = X[:, :1]
    elif shape == "duplicate_rows":
        # with L = n, repeated rows give folds with identical breakpoints
        X[n // 2 :] = X[: n - n // 2]
    elif shape == "rank_one":
        X = np.outer(rng.standard_normal(n), rng.standard_normal(d))
    Y = X @ rng.standard_normal(d) + draw(st.floats(0.0, 2.0)) * rng.standard_normal(n)
    if shape == "duplicate_rows":
        Y[n // 2 :] = Y[: n - n // 2]
    if shape == "zero_response":
        Y[:] = 0.0
    return Dataset(X, Y), L, draw(st.integers(0, 1000))


def roundoff_scale(spectra):
    """r * eps * mean (|y| + sum_j |s_j theta_j|)^2: the size of the summed
    terms, on which the path engine's accuracy is stated."""
    folds = spectra.folds
    size = np.mean(
        [
            np.mean((np.abs(f.y_val) + np.abs(f.scores * f.theta_ls).sum(axis=1)) ** 2)
            for f in folds
        ]
    )
    r = max(f.theta_ls.shape[0] for f in folds)
    return r * np.finfo(float).eps * size


class TestPathEngineAgainstOracles:
    @settings(max_examples=60, deadline=None)
    @given(cv_problems(), st.sampled_from([0.0, 1.0]))
    def test_engine_matches_direct_evaluation(self, problem, phi):
        ds, L, seed = problem
        try:
            spectra = _fold_spectra(ds, L, seed)
        except ZeroDesignError:
            return  # a training block with an all-zero design
        accuracy = 4.0 * roundoff_scale(spectra)
        zero_error = np.mean([np.mean(f.y_val**2) for f in spectra.folds])
        for rule in (SOFT_RULE, HARD_RULE):
            result = kfold_cv(ds, L, phi, rule, seed)
            direct = cv_error_at(ds, L, phi, rule, seed, result.tau_cv)
            assert result.cv_error_at_tau == pytest.approx(direct, rel=1e-12, abs=1e-300)

            candidates = result.candidate_set[np.isfinite(result.candidate_set)]
            grid = np.concatenate((candidates, np.linspace(0.0, 1.05 * candidates.max(), 400)))
            _, grid_err = grid_cv_oracle(ds, L, phi, rule, grid, seed)
            assert result.cv_error_at_tau <= grid_err + TIE_RTOL * zero_error + accuracy

            if rule is SOFT_RULE:
                taus, errors = result.path_segments[:, 2], result.path_segments[:, 3]
                direct_errors = sum(
                    _fold_errors_on_grid(fold, rule, taus, phi) for fold in spectra.folds
                ) / L
                assert np.max(np.abs(errors - direct_errors)) <= accuracy


def test_run_experiment_matches_public_calls():
    spec = ScenarioSpec(
        n=30,
        d_grid=(8, 40),
        eigen_decay_a=1.0,
        coef_pattern=PolyDecay(b=1.0),
        snr_target=5.0,
        replicates=2,
        base_seed=77,
        methods=("NCT-CV", "GCT-CV", "PCR-CV", "OLS", "Ridge-CV", "Zero"),
        gct_phi=1.0,
    )
    table = run_experiment(spec)
    for d in spec.d_grid:
        rel_mse = {method: [] for method in spec.methods}
        rel_pe = {method: [] for method in spec.methods}
        for replicate in range(spec.replicates):
            draw = generate_scenario(spec, d, replicate)
            ds, beta = draw.dataset, draw.beta
            seed = int(
                np.random.SeedSequence([spec.base_seed, d, replicate, 3]).generate_state(1)[0]
            )
            nct = kfold_cv(ds, 10, 0.0, SOFT_RULE, seed).tau_cv
            gct = kfold_cv(ds, 10, spec.gct_phi, SOFT_RULE, seed).tau_cv
            m, _ = kfold_cv_pcr(ds, 10, seed)
            lam, _ = kfold_cv_ridge(ds, 10, np.logspace(-8, 2, 40), seed)
            estimates = {
                "NCT-CV": fit_gct(ds, GctConfig(tau=nct)).beta,
                "GCT-CV": fit_gct(ds, GctConfig(tau=gct, phi=spec.gct_phi)).beta,
                "PCR-CV": fit_pcr(ds, m).beta,
                "OLS": fit_min_norm_ls(ds).beta,
                "Ridge-CV": fit_ridge(ds, lam).beta,
                "Zero": np.zeros(d),
            }
            for method, estimate in estimates.items():
                diff = estimate - beta
                rel_mse[method].append(
                    float(np.sum((ds.design @ diff) ** 2)) / float(np.sum((ds.design @ beta) ** 2))
                )
                rel_pe[method].append(
                    float(np.sum(draw.sigma_diag * diff**2))
                    / float(np.sum(draw.sigma_diag * beta**2))
                )
        for row in (row for row in table.rows if row.d == d):
            assert row.median_rel_mse == pytest.approx(np.median(rel_mse[row.method]), rel=1e-12)
            assert row.median_rel_pe == pytest.approx(np.median(rel_pe[row.method]), rel=1e-12)


def conditioned_dataset(seed, n, d, ratio, noise=0.1):
    """Rank min(n, d) design whose X^T X / n has eigenvalues log-spaced
    from 1 down to 1 / ratio."""
    rng = np.random.default_rng(seed)
    r = min(n, d)
    left, _ = np.linalg.qr(rng.standard_normal((n, r)))
    right, _ = np.linalg.qr(rng.standard_normal((d, r)))
    eigenvalues = np.logspace(0.0, -np.log10(ratio), r)
    X = math.sqrt(n) * (left * np.sqrt(eigenvalues)) @ right.T
    Y = X @ rng.standard_normal(d) + noise * rng.standard_normal(n)
    return Dataset(X, Y)


def svd_fold_spectra(ds, L, seed):
    """Fold spectra from a thin SVD of each training block, with the same
    relative floor on the eigenvalues; shares no code with the library's
    Gram route."""
    assignment = fold_assignment(ds.n, L, seed)
    folds = []
    for fold_id in range(L):
        train, val = assignment != fold_id, assignment == fold_id
        n_t = int(np.count_nonzero(train))
        V, s, Ut = np.linalg.svd(ds.design[train] / math.sqrt(n_t), full_matrices=False)
        keep = s**2 > 1e-12 * s[0] ** 2
        V, s, U = V[:, keep], s[keep], Ut[keep].T
        folds.append(
            _Fold(
                theta_ls=V.T @ ds.response[train] / math.sqrt(n_t),
                eigenvalues=s**2,
                scores=ds.design[val] @ U / s,
                y_val=ds.response[val],
            )
        )
    return _FoldSpectra(assignment=assignment, folds=tuple(folds))


# training blocks with n_t < d, n_t > d and n_t = d (n = 30, L = 5: n_t = 24)
FOLD_SHAPES = [(30, 60), (60, 10), (30, 24)]


class TestFoldSpectra:
    @pytest.mark.parametrize("n, d", FOLD_SHAPES)
    def test_tau_zero_fold_errors_match_lstsq_refit(self, n, d):
        ds = random_dataset(20, n, d)
        spectra = _fold_spectra(ds, 5, seed=3)
        assignment = fold_assignment(n, 5, seed=3)
        for fold_id, fold in enumerate(spectra.folds):
            train, val = assignment != fold_id, assignment == fold_id
            beta = np.linalg.lstsq(ds.design[train], ds.response[train], rcond=None)[0]
            expected = float(np.mean((ds.response[val] - ds.design[val] @ beta) ** 2))
            actual = float(np.mean((fold.y_val - fold.scores @ fold.theta_ls) ** 2))
            assert actual == pytest.approx(expected, rel=1e-9)
        direct = cv_error_at(ds, 5, 0.0, SOFT_RULE, 3, 0.0)
        assert direct == pytest.approx(
            np.mean([np.mean((f.y_val - f.scores @ f.theta_ls) ** 2) for f in spectra.folds]),
            rel=1e-12,
        )

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("n, d", FOLD_SHAPES)
    def test_ill_conditioned_cv_against_per_fold_svd(self, n, d, seed):
        # lambda_max / lambda_min = 1e10: the Gram route resolves the small
        # components to about eps * 1e10 relative, and tau_cv and its CV
        # error stay within that of the SVD fold spectra
        ratio = 1e10
        ds = conditioned_dataset(seed, n, d, ratio)
        reference = svd_fold_spectra(ds, 5, seed)
        bound = np.finfo(float).eps * ratio
        for phi in (0.0, 1.0):
            for rule in (SOFT_RULE, HARD_RULE):
                result = kfold_cv(ds, 5, phi, rule, seed)
                expected = _path_cv(reference, phi, rule)
                assert result.tau_cv == pytest.approx(expected.tau_cv, rel=bound)
                assert result.cv_error_at_tau == pytest.approx(
                    expected.cv_error_at_tau, rel=bound
                )
                np.testing.assert_array_equal(result.fold_ranks, expected.fold_ranks)

    @pytest.mark.parametrize("d", [3, 8])
    def test_zero_training_block_names_the_fold(self, d):
        # only fold 2's validation rows are nonzero, so its training block,
        # and no other, is zero
        assignment = fold_assignment(6, 3, seed=0)
        X = np.zeros((6, d))
        X[assignment == 2] = np.random.default_rng(21).standard_normal((2, d))
        ds = Dataset(X, np.ones(6))
        with pytest.raises(ZeroDesignError, match=r"fold 2\b.*zero design matrix"):
            kfold_cv(ds, 3, seed=0)

    @pytest.mark.parametrize("d", [4, 12])
    def test_fold_diagnostics_on_rank_deficient_fold(self, d):
        # fold 0 trains on the six rows of folds 1 and 2, which span one
        # direction; the other training blocks add fold 0's three generic
        # rows to three of them
        rng = np.random.default_rng(22)
        assignment = fold_assignment(9, 3, seed=0)
        X = np.empty((9, d))
        X[assignment == 0] = rng.standard_normal((3, d))
        X[assignment != 0] = np.outer(rng.standard_normal(6), rng.standard_normal(d))
        ds = Dataset(X, rng.standard_normal(9))
        result = kfold_cv(ds, 3, seed=0)
        reference = svd_fold_spectra(ds, 3, 0)
        np.testing.assert_array_equal(result.fold_ranks, [1, 4, 4])
        np.testing.assert_array_equal(
            result.fold_ranks, [f.eigenvalues.shape[0] for f in reference.folds]
        )
        np.testing.assert_allclose(
            result.fold_eigenvalue_ratios,
            [f.eigenvalues[-1] / f.eigenvalues[0] for f in reference.folds],
            rtol=1e-8,
        )
        assert result.fold_eigenvalue_ratios[0] == 1.0


def outlier_dataset(seed, n, d):
    """Gaussian design whose row 0 is scaled by 1e6, so that one row carries
    almost all of ||X||_F^2."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    X[0] *= 1e6
    return Dataset(X, X @ rng.standard_normal(d) + rng.standard_normal(n))


def matrix_bits(a):
    return (a.shape, a.tobytes())


class TestTallDowndate:
    """A tall training block's Gram matrix is X^T X downdated by the
    validation block, unless that block carries more of ||X||_F^2 than the
    training block.  n = 60, d = 10, L = 5: every training block is tall, and
    the outlier row is in the validation block of one fold (a direct
    product) and in the training block of the other four (a downdate)."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_outlier_row_against_per_fold_svd(self, seed):
        # eigenvalues within a few d eps lambda_max of the fold's SVD, as a
        # Gram matrix with error about eps ||G_t|| gives; a downdate across
        # the outlier would be off by about eps ||G|| = 1e12 times that
        d = 10
        ds = outlier_dataset(seed, 60, d)
        spectra = _fold_spectra(ds, 5, seed)
        reference = svd_fold_spectra(ds, 5, seed)
        eps = np.finfo(float).eps
        for fold, expected in zip(spectra.folds, reference.folds):
            lam = expected.eigenvalues
            assert fold.eigenvalues.shape == lam.shape
            np.testing.assert_allclose(
                fold.eigenvalues, lam, rtol=0.0, atol=4 * d * eps * lam[0]
            )
            fitted = expected.scores @ expected.theta_ls
            np.testing.assert_allclose(
                fold.scores @ fold.theta_ls,
                fitted,
                rtol=0.0,
                atol=4 * d * eps * lam[0] / lam[-1] * np.max(np.abs(fitted)),
            )

    def test_each_branch_is_taken(self, monkeypatch):
        ds = outlier_dataset(0, 60, 10)
        assignment = fold_assignment(60, 5, 0)
        seen = []
        spectrum = tuning._gram_spectrum

        def spy(gram):
            seen.append(matrix_bits(gram))
            return spectrum(gram)

        monkeypatch.setattr(tuning, "_gram_spectrum", spy)
        _fold_spectra(ds, 5, 0)
        X = ds.design
        expected = []
        with _blas.pinned():
            G = X.T @ X
            for fold_id in range(5):
                val = assignment == fold_id
                X_v, X_t = X[val], X[~val]
                n_t = X_t.shape[0]
                downdate, direct = (G - X_v.T @ X_v) / n_t, X_t.T @ X_t / n_t
                assert not np.array_equal(downdate, direct)
                expected.append(matrix_bits(direct if val[0] else downdate))
        # the folds may reach the spy in any order
        assert sorted(seen) == sorted(expected)


CONTROL = _blas.thread_control()
needs_openblas = pytest.mark.skipif(
    CONTROL is None, reason="no OpenBLAS thread control: fold maps are plain loops"
)


def spectra_bits(spectra):
    arrays = [spectra.assignment]
    for fold in spectra.folds:
        arrays += [fold.theta_ls, fold.eigenvalues, fold.scores, fold.y_val]
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def cpus(monkeypatch, count):
    """Pretend the process may run on count CPUs: count - 1 helpers per map
    (at most L - 1), so the helper path runs on a one-CPU machine too."""
    monkeypatch.setattr(_blas, "usable_cpus", lambda: count)


def meeting_folds(monkeypatch, first_delay=0.0):
    """Make folds 0 and 1 wait for each other before they are decomposed, so
    they run on two threads at once, and then hold fold 0 back for
    first_delay seconds, so fold 1 finishes first.  Returns the list of
    (fold id, thread name, OpenBLAS thread count) each fold records."""
    barrier = threading.Barrier(2, timeout=10)
    seen = []
    decompose = tuning._fold

    def fold(dataset, assignment, fold_id):
        seen.append((fold_id, threading.current_thread().name, CONTROL.get()))
        if fold_id < 2:
            barrier.wait()
            if fold_id == 0:
                time.sleep(first_delay)
        return decompose(dataset, assignment, fold_id)

    monkeypatch.setattr(tuning, "_fold", fold)
    return seen


def helper_threads():
    return [thread for thread in threading.enumerate() if thread.name == "ctreg-helper"]


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def forked(child, seconds=60):
    """Run child() in a forked process and return its exit code: what child
    returns, or 1 if it raises.  Fails the test if the child has not ended
    after that many seconds."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = child()
        finally:
            os._exit(code)
    deadline = time.monotonic() + seconds
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail(f"the forked child did not finish in {seconds} s")
        time.sleep(0.01)


# Gram route (n_t <= d), tall route, and both (L = 2: n_t = 11 and 12);
# 23 and 53 rows never split evenly into 2, 3 or 10 folds
ROUTE_SHAPES = [(23, 40), (53, 7), (23, 11)]


@needs_openblas
class TestFoldMap:
    @pytest.mark.parametrize("L", [2, 3, 10])
    @pytest.mark.parametrize("n, d", ROUTE_SHAPES)
    def test_helpers_give_the_serial_bits(self, monkeypatch, n, d, L):
        ds = random_dataset(31, n, d)
        cpus(monkeypatch, 1)
        serial = spectra_bits(_fold_spectra(ds, L, 4))
        cpus(monkeypatch, 4)
        seen = meeting_folds(monkeypatch, first_delay=0.02)
        assert spectra_bits(_fold_spectra(ds, L, 4)) == serial
        assert sorted(fold_id for fold_id, _, _ in seen) == list(range(L))
        assert "ctreg-helper" in {name for _, name, _ in seen}
        assert {count for _, _, count in seen} == {1}

    def test_without_openblas_the_caller_runs_every_fold(self, monkeypatch):
        ds = random_dataset(35, 23, 40)
        cpus(monkeypatch, 1)
        serial = spectra_bits(_fold_spectra(ds, 5, 2))
        cpus(monkeypatch, 4)
        monkeypatch.setattr(_blas, "thread_control", lambda: None)
        names = []
        decompose = tuning._fold

        def fold(dataset, assignment, fold_id):
            names.append(threading.current_thread().name)
            return decompose(dataset, assignment, fold_id)

        monkeypatch.setattr(tuning, "_fold", fold)
        assert spectra_bits(_fold_spectra(ds, 5, 2)) == serial
        assert names == [threading.current_thread().name] * 5

    def test_results_come_in_index_order(self, monkeypatch):
        # index 0 finishes last, so completion order is not index order
        cpus(monkeypatch, 2)
        barrier = threading.Barrier(2, timeout=10)

        def square(index):
            if index < 2:
                barrier.wait()
            if index == 0:
                time.sleep(0.05)
            return index * index

        assert _blas.fold_map(square, 6) == [0, 1, 4, 9, 16, 25]

    def test_zero_blocks_name_the_lowest_fold(self, monkeypatch):
        # every training block is zero; fold 1 fails first, on the helper,
        # and the error still names fold 0, as the serial loop's does
        cpus(monkeypatch, 2)
        seen = meeting_folds(monkeypatch, first_delay=0.05)
        ds = Dataset(np.zeros((9, 4)), np.ones(9))
        with pytest.raises(ZeroDesignError, match=r"^fold 0: zero design matrix"):
            _fold_spectra(ds, 3, 0)
        assert {fold_id for fold_id, _, _ in seen} == {0, 1}

    @pytest.mark.parametrize("shape", [(40, 90), (90, 6)])
    def test_thread_count_restored_after_return(self, monkeypatch, blas_threads, shape):
        cpus(monkeypatch, 2)
        seen = meeting_folds(monkeypatch)
        kfold_cv(random_dataset(32, *shape), 5)
        assert {count for _, _, count in seen} == {1}
        assert blas_threads() == 2

    def test_thread_count_restored_after_raise(self, monkeypatch, blas_threads):
        cpus(monkeypatch, 2)
        with pytest.raises(ZeroDesignError):
            kfold_cv(Dataset(np.zeros((12, 3)), np.ones(12)), 4)
        assert blas_threads() == 2

    def test_no_helper_outlives_its_map(self, monkeypatch):
        cpus(monkeypatch, 4)
        seen = meeting_folds(monkeypatch)
        kfold_cv(random_dataset(37, 40, 9), 5)
        assert "ctreg-helper" in {name for _, name, _ in seen}
        assert helper_threads() == []
        with pytest.raises(ZeroDesignError):
            kfold_cv(Dataset(np.zeros((12, 3)), np.ones(12)), 4)
        assert helper_threads() == []

    @needs_fork
    def test_forked_child_runs_cv_with_its_own_helper(self, monkeypatch):
        # the child starts the helper of its own map
        cpus(monkeypatch, 2)
        kfold_cv(random_dataset(33, 60, 8), 5)
        seen = meeting_folds(monkeypatch)

        def child():
            kfold_cv(random_dataset(34, 60, 8), 5)
            return 0 if "ctreg-helper" in {name for _, name, _ in seen} else 3

        assert forked(child) == 0

    @needs_fork
    def test_child_forked_during_a_pin_runs_cv(self, monkeypatch, blas_threads):
        # at the fork another thread is inside a pin and holds the pin lock;
        # neither ends in the child, which must not wait for the lock and
        # must start from the count that pin found
        cpus(monkeypatch, 2)
        holding, release = threading.Event(), threading.Event()

        def hold():
            with _blas.pinned(), _blas._lock:
                holding.set()
                release.wait(timeout=120)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert holding.wait(timeout=10)

            def child():
                kfold_cv(random_dataset(36, 60, 8), 5)
                return 0 if blas_threads() == 2 else 3

            assert forked(child) == 0
        finally:
            release.set()
            holder.join(timeout=10)
        assert not holder.is_alive()
        assert blas_threads() == 2

    def test_spectra_do_not_depend_on_the_blas_thread_count(self):
        # both routes; at 2 threads an unpinned Gram product and eigh change
        # the last bits of these spectra
        script = (
            "import hashlib, numpy as np\n"
            "from ctreg import Dataset\n"
            "from ctreg.tuning import _fold_spectra\n"
            "for n, d in [(130, 300), (220, 200), (400, 150)]:\n"
            "    rng = np.random.default_rng(n + d)\n"
            "    X = rng.standard_normal((n, d)) / np.arange(1, d + 1.0)\n"
            "    ds = Dataset(X, X @ rng.standard_normal(d) + 0.1 * rng.standard_normal(n))\n"
            "    h = hashlib.sha256()\n"
            "    for fold in _fold_spectra(ds, 5, 1).folds:\n"
            "        for a in (fold.theta_ls, fold.eigenvalues, fold.scores):\n"
            "            h.update(a.tobytes())\n"
            "    print(n, d, h.hexdigest())\n"
        )
        src = os.path.dirname(os.path.dirname(tuning.__file__))
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script],
                env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads),
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            ).stdout
            for threads in ("1", "2")
        ]
        assert outputs[0].count("\n") == 3
        assert outputs[0] == outputs[1]
