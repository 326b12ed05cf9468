"""Error measures, diagnostic quantities, and risk-bound evaluators.

The in-sample error of any fit from this package reduces to a Euclidean
distance between canonical coefficient vectors, which makes the two-sided
risk bounds below directly checkable on simulated data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from numpy.typing import NDArray

from .canonical import CanonicalDecomposition, to_theta

FloatArray = NDArray[np.float64]

L0_FLOOR = 1e-12


def mse_fixed(
    beta_hat: FloatArray, beta: FloatArray, dec: CanonicalDecomposition
) -> float:
    """In-sample error (bhat - b)^T SigmaHat (bhat - b) via the canonical map."""
    beta_hat = np.asarray(beta_hat, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    d = dec.right_vectors.shape[0]
    if beta_hat.shape != (d,) or beta.shape != (d,):
        raise ValueError(f"coefficient vectors must have length {d}")
    diff = to_theta(dec, beta_hat - beta)
    return float(diff @ diff)


def pe_random(beta_hat: FloatArray, beta: FloatArray, Sigma: FloatArray) -> float:
    """Population prediction error (bhat - b)^T Sigma (bhat - b)."""
    beta_hat = np.asarray(beta_hat, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    Sigma = np.asarray(Sigma, dtype=np.float64)
    diff = beta_hat - beta
    value = float(diff @ Sigma @ diff)
    if value < -1e-10 * max(1.0, float(np.abs(Sigma).max())):
        raise ValueError("covariance matrix is not positive semidefinite")
    return max(value, 0.0)


def snr(beta: FloatArray, covariance: FloatArray, sigma: float) -> float:
    """Signal-to-noise ratio sqrt(beta^T Cov beta) / sigma."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    beta = np.asarray(beta, dtype=np.float64)
    covariance = np.asarray(covariance, dtype=np.float64)
    return math.sqrt(max(float(beta @ covariance @ beta), 0.0)) / sigma


def effective_rank(Sigma: Union[FloatArray, "np.ndarray"]) -> float:
    """Trace over spectral norm; accepts a PSD matrix or its eigenvalue vector."""
    Sigma = np.asarray(Sigma, dtype=np.float64)
    if Sigma.ndim == 1:
        top = float(np.max(Sigma))
        total = float(np.sum(Sigma))
    elif Sigma.ndim == 2:
        eig = np.linalg.eigvalsh(Sigma)
        top = float(eig[-1])
        total = float(np.trace(Sigma))
    else:
        raise ValueError("expected a matrix or an eigenvalue vector")
    if top <= 0:
        raise ValueError("effective rank undefined for a zero matrix")
    return total / top


def _lq_pseudo_norm(v: FloatArray, q: float) -> float:
    """||v||_q^q with the l0 convention counting entries above a small floor."""
    if q == 0.0:
        return float(np.count_nonzero(np.abs(v) > L0_FLOOR))
    return float(np.sum(np.abs(v) ** q))


def joint_effective_dimension(
    theta_scaled: FloatArray, theta_full_norm: float, q: float
) -> float:
    """||theta_{<=k}||_q^q / ||theta||_2^q for the leading scaled coefficients."""
    if not 0.0 <= q <= 2.0:
        raise ValueError(f"q must lie in [0, 2], got {q!r}")
    if theta_full_norm <= 0:
        raise ValueError("zero full norm: joint effective dimension undefined")
    theta_scaled = np.asarray(theta_scaled, dtype=np.float64)
    return _lq_pseudo_norm(theta_scaled, q) / theta_full_norm**q


def threshold_scale(n: int, r: int, delta: float, alpha: float) -> float:
    """The universal threshold scale (2/sqrt(n)) * log(2r/delta)^(1/alpha)."""
    if n < 1 or r < 1:
        raise ValueError("n and r must be positive integers")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"alpha must lie in (0, 2], got {alpha!r}")
    return (2.0 / math.sqrt(n)) * math.log(2.0 * r / delta) ** (1.0 / alpha)


@dataclass(frozen=True)
class RiskBoundReport:
    """Two-sided risk bound core and its l_q relaxation.

    ``sandwich_core`` is sum_j min(level, |theta_j|)^2; ``lq_bound`` is the
    infimum over the q grid of ||theta||_q^q * level^(2-q).  The core never
    exceeds the relaxation.
    """

    sandwich_core: float
    lq_bound: float
    argmin_q: float


def risk_bound(
    theta: FloatArray, level: float, q_grid: Optional[FloatArray] = None
) -> RiskBoundReport:
    """Evaluate the two-sided bound core and its l_q relaxation at a noise level."""
    if level <= 0:
        raise ValueError("level must be positive")
    theta = np.asarray(theta, dtype=np.float64)
    core = float(np.sum(np.minimum(level, np.abs(theta)) ** 2))

    if q_grid is None:
        q_grid = np.arange(0.0, 2.0 + 1e-9, 0.01)
    q_grid = np.asarray(q_grid, dtype=np.float64)
    best = math.inf
    best_q = 0.0
    for q in q_grid:
        value = _lq_pseudo_norm(theta, float(q)) * level ** (2.0 - q)
        if value < best:
            best = float(value)
            best_q = float(q)
    return RiskBoundReport(sandwich_core=core, lq_bound=best, argmin_q=best_q)


def weighted_risk_bound(
    theta: FloatArray, eigenvalues: FloatArray, level: float, phi: float
) -> float:
    """Risk-bound core with eigenvalue weighting:
    sum_j min((lam_1/lam_j)^(phi/2) * level, |theta_j|)^2."""
    if level <= 0:
        raise ValueError("level must be positive")
    if phi < 0:
        raise ValueError("phi must be nonnegative")
    theta = np.asarray(theta, dtype=np.float64)
    eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
    if theta.shape != eigenvalues.shape:
        raise ValueError("theta and eigenvalues must have the same length")
    if np.any(eigenvalues <= 0) or np.any(np.diff(eigenvalues) > 0):
        raise ValueError("eigenvalues must be positive and non-increasing")
    weights = (eigenvalues[0] / eigenvalues) ** (phi / 2.0)
    return float(np.sum(np.minimum(weights * level, np.abs(theta)) ** 2))
