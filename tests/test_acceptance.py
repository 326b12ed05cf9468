"""Acceptance suite: one test per headline guarantee, each printing a
single pass/fail line, with tolerances pinned in the assertions.

Every expected value here is produced by an independent oracle (a separate
solver, a dense grid, or a hand-checkable construction), never by the code
under test.
"""

import math
import time

import numpy as np
import pytest

from ctreg import (
    Dataset,
    GctConfig,
    KernelSpec,
    PolyDecay,
    SOFT_RULE,
    ScenarioSpec,
    canonical_ls,
    canonicalize,
    cv_error_at,
    fit_gct,
    fit_kernel_gct,
    fit_nct,
    fit_pcr,
    gram,
    grid_cv_oracle,
    joint_effective_dimension,
    kfold_cv,
    predict,
    predict_kernel_batch,
    run_experiment,
    threshold_scale,
    to_theta,
)


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def lasso_coordinate_descent(Z, Y, tau, n, iters=2000, tol=1e-14):
    """Independent LASSO solver for (2n)^{-1}||Y - Z theta||^2 + tau ||theta||_1.

    Plain cyclic coordinate descent; does not assume anything about Z.
    """
    r = Z.shape[1]
    theta = np.zeros(r)
    col_sq = np.sum(Z**2, axis=0) / n
    resid = Y.copy()
    for _ in range(iters):
        max_delta = 0.0
        for j in range(r):
            old = theta[j]
            rho = float(Z[:, j] @ resid) / n + col_sq[j] * old
            new = math.copysign(max(abs(rho) - tau, 0.0), rho) / col_sq[j]
            if new != old:
                resid -= Z[:, j] * (new - old)
                theta[j] = new
                max_delta = max(max_delta, abs(new - old))
        if max_delta < tol:
            break
    return theta


def test_criterion_1_lasso_equivalence():
    start = time.time()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for i in range(100):
        n, d = 20, (10 if i % 2 == 0 else 30)
        X = rng.standard_normal((n, d))
        Y = X @ rng.standard_normal(d) + rng.standard_normal(n)
        tau = float(10 ** rng.uniform(-2, 0.5))
        ds = Dataset(X, Y)
        dec = canonicalize(ds)
        Z = math.sqrt(n) * dec.left_vectors
        theta_cd = lasso_coordinate_descent(Z, Y, tau, n)
        theta_nct = fit_nct(ds, tau).theta_hat
        worst = max(worst, float(np.max(np.abs(theta_cd - theta_nct))))
    elapsed = time.time() - start
    report(
        "criterion 1: NCT equals coordinate-descent LASSO on the canonical design",
        worst <= 1e-8 and elapsed < 10.0,
        f"max deviation {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_mse_sandwich():
    start = time.time()
    n, r, delta = 100, 50, 0.05
    # the noise-magnitude parameter is the Orlicz psi_2 norm of the noise,
    # which for a standard Gaussian is sqrt(8/3) (the smallest s with
    # E[exp(eps^2/s^2)] <= 2), not the standard deviation
    noise_std = 1.0
    sigma = noise_std * math.sqrt(8.0 / 3.0)
    rng = np.random.default_rng(1002)
    X = rng.standard_normal((n, r))
    beta = rng.standard_normal(r) * rng.choice([0.01, 0.1, 1.0], size=r)
    ds0 = Dataset(X, np.zeros(n))
    dec = canonicalize(ds0)
    assert dec.rank == r
    theta = to_theta(dec, beta)
    level = sigma * threshold_scale(n, r, delta, 2.0)
    core = float(np.sum(np.minimum(level, np.abs(theta)) ** 2))
    signal = X @ beta

    event_count = 0
    sandwich_ok = True
    for _ in range(1000):
        eps = noise_std * rng.standard_normal(n)
        noise_proj = dec.left_vectors.T @ eps / math.sqrt(n)
        if float(np.max(np.abs(noise_proj))) > level / 2.0:
            continue
        event_count += 1
        theta_ls = canonical_ls(dec, signal + eps)
        theta_hat = np.sign(theta_ls) * np.maximum(np.abs(theta_ls) - level, 0.0)
        err = float(np.sum((theta_hat - theta) ** 2))
        if not (0.25 * core <= err <= 9.0 * core):
            sandwich_ok = False
    elapsed = time.time() - start
    report(
        "criterion 2: two-sided MSE sandwich with constants 1/4 and 9 on the "
        "low-noise event",
        event_count >= 950 and sandwich_ok and elapsed < 30.0,
        f"event rate {event_count}/1000, {elapsed:.1f}s",
    )


def test_criterion_3_cv_path_exactness():
    start = time.time()
    rng = np.random.default_rng(1003)
    ok = True
    for i in range(50):
        n, d = 30, (15 if i % 2 == 0 else 50)
        X = rng.standard_normal((n, d))
        Y = X @ rng.standard_normal(d) + rng.standard_normal(n)
        ds = Dataset(X, Y)
        result = kfold_cv(ds, 5, seed=i)
        hi = max(float(bp.max()) for bp in result.fold_breakpoints)
        grid = np.concatenate(
            ([0.0], np.logspace(math.log10(hi) - 6, math.log10(hi * 1.01), 10_000))
        )
        _, grid_err = grid_cv_oracle(ds, 5, 0.0, SOFT_RULE, grid, seed=i)
        re_eval = cv_error_at(ds, 5, 0.0, SOFT_RULE, i, result.tau_cv)
        if result.cv_error_at_tau > grid_err + 1e-10:
            ok = False
        if abs(re_eval - result.cv_error_at_tau) > 1e-12:
            ok = False
    elapsed = time.time() - start
    report(
        "criterion 3: exact CV path dominates a 10^4-point log grid and "
        "re-evaluates consistently",
        ok and elapsed < 20.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_4_kernel_linear_reduction():
    start = time.time()
    rng = np.random.default_rng(1004)
    worst = 0.0
    for i in range(30):
        n, d = 15, 25
        X = rng.standard_normal((n, d))
        Y = X @ rng.standard_normal(d) + 0.2 * rng.standard_normal(n)
        holdout = rng.standard_normal((10, d))
        for tau, phi in ((0.0, 0.0), (0.3, 0.0), (0.3, 1.0)):
            config = GctConfig(tau=tau, phi=phi)
            km = fit_kernel_gct(X, Y, KernelSpec(kind="linear"), config)
            lm = fit_gct(Dataset(X, Y), config)
            diff = predict_kernel_batch(km, holdout) - predict(lm, holdout)
            worst = max(worst, float(np.max(np.abs(diff))))
    elapsed = time.time() - start
    report(
        "criterion 4: linear-kernel fit reproduces the linear-module predictions",
        worst <= 1e-8 and elapsed < 5.0,
        f"max deviation {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_simulation_qualitative():
    start = time.time()
    spec = ScenarioSpec(
        n=200,
        d_grid=(50, 100, 400),
        eigen_decay_a=2.0,
        coef_pattern=PolyDecay(b=2.0),
        snr_target=10.0,
        replicates=100,
        base_seed=2024,
        methods=("NCT-CV", "GCT-CV"),
        gct_phi=1.0,
    )
    table = run_experiment(spec)
    cells = {(row.method, row.d): row for row in table.rows}
    below_one = all(
        cells[m, d].median_rel_mse < 1.0 and cells[m, d].median_rel_pe < 1.0
        for m in ("NCT-CV", "GCT-CV")
        for d in (50, 100, 400)
    )
    gct_wins = (
        cells["GCT-CV", 400].median_rel_mse <= cells["NCT-CV", 400].median_rel_mse
    )
    elapsed = time.time() - start
    report(
        "criterion 5: simulation medians beat the trivial estimator and the "
        "eigenvalue-weighted variant wins in the fast-decay regime",
        below_one and gct_wins and elapsed < 600.0,
        f"GCT {cells['GCT-CV', 400].median_rel_mse:.2e} vs "
        f"NCT {cells['NCT-CV', 400].median_rel_mse:.2e} at d=400, {elapsed:.0f}s",
    )


def test_criterion_6_effective_dimension_properties():
    start = time.time()
    rng = np.random.default_rng(1006)
    q_grid = np.arange(0.0, 2.01, 0.1)
    ok = True
    for _ in range(200):
        d = int(rng.integers(2, 15))
        eig = np.sort(rng.random(d))[::-1] + 0.05
        U = np.linalg.qr(rng.standard_normal((d, d)))[0]
        beta = rng.standard_normal(d) * rng.choice([0.0, 0.1, 1.0], size=d)
        if not np.any(beta):
            beta[0] = 1.0
        theta = np.sqrt(eig) * (U.T @ beta)
        norm = float(np.linalg.norm(theta))
        prev_k = None
        for k in range(1, d + 1):
            values = [joint_effective_dimension(theta[:k], norm, float(q)) for q in q_grid]
            # bounded by k
            if any(v > k + 1e-9 for v in values):
                ok = False
            # non-increasing in q
            if any(a < b - 1e-9 for a, b in zip(values, values[1:])):
                ok = False
            # non-decreasing in k
            if prev_k is not None and any(
                v < p - 1e-9 for v, p in zip(values, prev_k)
            ):
                ok = False
            prev_k = values
        # q = 2 on the full vector is exactly 1
        if abs(joint_effective_dimension(theta, norm, 2.0) - 1.0) > 1e-9:
            ok = False
        # the order-0 value counts the nonzero components
        count = int(np.count_nonzero(np.abs(theta) > 1e-12))
        if joint_effective_dimension(theta, norm, 0.0) != count:
            ok = False
    elapsed = time.time() - start
    report(
        "criterion 6: effective-dimension bound, monotonicities, normalization, "
        "and sparsity count",
        ok and elapsed < 5.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_7_min_norm_and_pcr_identities():
    rng = np.random.default_rng(1007)
    worst_pinv = 0.0
    worst_pcr = 0.0
    shapes = [(12, 20), (15, 15), (25, 8)]
    for i in range(100):
        n, d = shapes[i % 3]
        X = rng.standard_normal((n, d))
        Y = X @ rng.standard_normal(d) + rng.standard_normal(n)
        ds = Dataset(X, Y)
        beta = fit_nct(ds, 0.0).beta
        worst_pinv = max(
            worst_pinv, float(np.max(np.abs(beta - np.linalg.pinv(X) @ Y)))
        )
        dec = canonicalize(ds)
        m = int(rng.integers(1, dec.rank + 1))
        scores = X @ dec.right_vectors[:, :m]
        coef, *_ = np.linalg.lstsq(scores, Y, rcond=None)
        expected = dec.right_vectors[:, :m] @ coef
        worst_pcr = max(
            worst_pcr, float(np.max(np.abs(fit_pcr(ds, m).beta - expected)))
        )
    report(
        "criterion 7: zero-threshold fit equals the pseudoinverse and PCR equals "
        "least squares on leading component scores",
        worst_pinv <= 1e-8 and worst_pcr <= 1e-9,
        f"pinv {worst_pinv:.2e}, pcr {worst_pcr:.2e}",
    )


def test_criterion_8_rate_sanity():
    start = time.time()
    d, snr, reps, delta = 300, 0.5, 50, 0.05
    lam = np.arange(1, d + 1, dtype=np.float64) ** -1.0
    beta = np.arange(1, d + 1, dtype=np.float64) ** -1.0
    sigma = math.sqrt(float(np.sum(lam * beta**2))) / snr
    medians = []
    for n in (100, 200, 400):
        rng = np.random.default_rng(5000 + n)
        errors = []
        for _ in range(reps):
            X = rng.standard_normal((n, d)) * np.sqrt(lam)
            Y = X @ beta + sigma * rng.standard_normal(n)
            ds = Dataset(X, Y)
            dec = canonicalize(ds)
            level = sigma * threshold_scale(n, dec.rank, delta, 2.0)
            tau = math.sqrt(float(dec.eigenvalues[0])) * level
            fit = fit_gct(ds, GctConfig(tau=tau, phi=1.0))
            diff = fit.beta - beta
            errors.append(float(np.sum((X @ diff) ** 2)) / n)
        medians.append(float(np.median(errors)))
    monotone = medians[0] > medians[1] > medians[2]
    slope = np.polyfit(np.log([100, 200, 400]), np.log(medians), 1)[0]
    elapsed = time.time() - start
    report(
        "criterion 8: median in-sample error decreases in n with a negative "
        "log-log slope",
        monotone and slope < 0 and elapsed < 300.0,
        f"medians {medians[0]:.3e} > {medians[1]:.3e} > {medians[2]:.3e}, "
        f"slope {slope:.2f}, {elapsed:.0f}s",
    )


def test_criterion_9_representer_reproduction():
    rng = np.random.default_rng(1009)
    worst = 0.0
    for _ in range(50):
        n, d = int(rng.integers(5, 20)), int(rng.integers(2, 6))
        X = rng.standard_normal((n, d))
        Y = rng.standard_normal(n)
        spec = KernelSpec(kind="rbf", gamma=float(10 ** rng.uniform(-1, 0.5)))
        tau = float(rng.uniform(0.0, 0.5))
        model = fit_kernel_gct(X, Y, spec, GctConfig(tau=tau))
        fitted = gram(X, spec) @ model.dual_coeffs
        spectral = math.sqrt(n) * model.left_vectors @ model.theta_hat
        worst = max(worst, float(np.max(np.abs(fitted - spectral))))
    report(
        "criterion 9: dual-form in-sample fit matches the spectral form",
        worst <= 1e-10,
        f"max deviation {worst:.2e}",
    )
