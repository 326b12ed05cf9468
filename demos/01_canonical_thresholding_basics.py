"""Walkthrough: canonical form, thresholding estimators, and why the
relative error stays controlled when d >> n.

Run:  python3 demos/01_canonical_thresholding_basics.py
"""

import numpy as np

from ctreg import (
    Dataset,
    GctConfig,
    canonicalize,
    effective_rank,
    fit_gct,
    fit_min_norm_ls,
    fit_nct,
    mse_fixed,
    snr,
    to_theta,
)

rng = np.random.default_rng(0)

# --- a non-sparse high-dimensional problem -------------------------------
# Covariance eigenvalues decay polynomially; every coefficient is nonzero.
n, d = 100, 400
lam = np.arange(1, d + 1, dtype=float) ** -2.0
beta = np.arange(1, d + 1, dtype=float) ** -2.0
sigma = np.sqrt(np.sum(lam * beta**2)) / 5.0  # population SNR = 5

X = rng.standard_normal((n, d)) * np.sqrt(lam)
Y = X @ beta + sigma * rng.standard_normal(n)
ds = Dataset(X, Y)

dec = canonicalize(ds)
print(f"n = {n}, d = {d}, retained rank r = {dec.rank}")
print(f"effective rank of the sample covariance: {effective_rank(dec.eigenvalues):.2f}")
print(f"signal-to-noise ratio: {snr(beta, np.diag(lam), sigma):.2f}")

# --- compare estimators ---------------------------------------------------
# The trivial estimator (beta = 0) is the baseline: relative error 1.
theta = to_theta(dec, beta)
trivial = float(theta @ theta)

print("\nrelative in-sample error (lower is better, 1.0 = trivial):")
ols = fit_min_norm_ls(ds)
print(f"  min-norm least squares: {mse_fixed(ols.beta, beta, dec) / trivial:.4f}")

for tau in (0.01, 0.05, 0.2):
    nct = fit_nct(ds, tau)
    kept = int(np.count_nonzero(nct.theta_hat))
    rel = mse_fixed(nct.beta, beta, dec) / trivial
    print(f"  soft thresholding, tau = {tau:<5}: {rel:.4f}  "
          f"({kept}/{dec.rank} canonical components kept)")

# Eigenvalue-weighted thresholding shrinks low-eigenvalue directions harder,
# which pays off when the canonical coefficients decay quickly.
gct = fit_gct(ds, GctConfig(tau=0.05, phi=1.0))
rel = mse_fixed(gct.beta, beta, dec) / trivial
print(f"  weighted thresholding (phi = 1), tau = 0.05: {rel:.4f}")
