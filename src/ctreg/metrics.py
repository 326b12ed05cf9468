"""Error measures, diagnostic quantities, and risk-bound evaluators.

The in-sample error of any fit from this package reduces to a Euclidean
distance between canonical coefficient vectors, which makes the two-sided
risk bounds below directly checkable on simulated data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.typing import NDArray

from .canonical import CanonicalDecomposition, to_theta
from .errors import _array, _integer, _real

FloatArray = NDArray[np.float64]

L0_FLOOR = 1e-12
RISK_Q_GRID = np.arange(0.0, 2.0 + 1e-9, 0.01)


def mse_fixed(
    beta_hat: FloatArray, beta: FloatArray, dec: CanonicalDecomposition
) -> float:
    """In-sample error (bhat - b)^T SigmaHat (bhat - b) via the canonical map."""
    d = dec.design.shape[1]
    beta_hat = _array("beta_hat", beta_hat, (d,))
    beta = _array("beta", beta, (d,))
    diff = to_theta(dec, beta_hat - beta)
    return float(diff @ diff)


def pe_random(beta_hat: FloatArray, beta: FloatArray, Sigma: FloatArray) -> float:
    """Population prediction error (bhat - b)^T Sigma (bhat - b)."""
    beta_hat = _array("beta_hat", beta_hat, ("d",))
    d = beta_hat.shape[0]
    beta = _array("beta", beta, (d,))
    Sigma = _array("Sigma", Sigma, (d, d))
    diff = beta_hat - beta
    value = float(diff @ Sigma @ diff)
    if value < -1e-10 * max(1.0, float(np.abs(Sigma).max())):
        raise ValueError(
            f"Sigma must be positive semidefinite, got (beta_hat - beta)^T Sigma "
            f"(beta_hat - beta) = {value!r}"
        )
    return max(value, 0.0)


def snr(beta: FloatArray, covariance: FloatArray, sigma: float) -> float:
    """Signal-to-noise ratio sqrt(beta^T Cov beta) / sigma."""
    _real("sigma", sigma, 0, math.inf, "()")
    beta = _array("beta", beta, ("d",))
    covariance = _array("covariance", covariance, 2 * beta.shape)
    return math.sqrt(max(float(beta @ covariance @ beta), 0.0)) / sigma


def effective_rank(Sigma: Union[FloatArray, "np.ndarray"]) -> float:
    """Trace over spectral norm; accepts a PSD matrix or its eigenvalue vector."""
    Sigma = _array("Sigma", Sigma, scan=False)
    Sigma = _array("Sigma", Sigma, ("d",) if Sigma.ndim == 1 else ("d", "d"))
    if Sigma.ndim == 1:
        top = float(np.max(Sigma))
        total = float(np.sum(Sigma))
    else:
        top = float(np.linalg.eigvalsh(Sigma)[-1])
        total = float(np.trace(Sigma))
    if top <= 0:
        raise ValueError(
            f"Sigma must be nonzero with a positive largest eigenvalue, got largest "
            f"eigenvalue {top!r}"
        )
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
    _real("q", q, 0, 2, "[]")
    _real("theta_full_norm", theta_full_norm, 0, math.inf, "()")
    theta_scaled = _array("theta_scaled", theta_scaled, ("k",))
    return _lq_pseudo_norm(theta_scaled, q) / theta_full_norm**q


def threshold_scale(n: int, r: int, delta: float, alpha: float) -> float:
    """The universal threshold scale (2/sqrt(n)) * log(2r/delta)^(1/alpha)."""
    n, r = _integer("n", n, 1), _integer("r", r, 1)
    _real("delta", delta, 0, 1, "()")
    _real("alpha", alpha, 0, 2, "(]")
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


def risk_bound(theta: FloatArray, level: float) -> RiskBoundReport:
    """Evaluate the two-sided bound core and its l_q relaxation at a noise level.

    The relaxation is minimized over RISK_Q_GRID, q = 0, 0.01, ..., 2.
    """
    _real("level", level, 0, math.inf, "()")
    theta = _array("theta", theta, ("r",))
    core = float(np.sum(np.minimum(level, np.abs(theta)) ** 2))
    best = math.inf
    best_q = 0.0
    for q in RISK_Q_GRID:
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
    _real("level", level, 0, math.inf, "()")
    _real("phi", phi, 0, math.inf, "[)")
    theta = _array("theta", theta, ("r",))
    eigenvalues = _array("eigenvalues", eigenvalues, theta.shape)
    if not (np.all(eigenvalues > 0) and np.all(np.diff(eigenvalues) <= 0)):
        raise ValueError(
            "eigenvalues must be positive and non-increasing, "
            f"got {eigenvalues.tolist()!r:.80}"
        )
    weights = (eigenvalues[0] / eigenvalues) ** (phi / 2.0)
    return float(np.sum(np.minimum(weights * level, np.abs(theta)) ** 2))
