"""Thresholding-family estimators: NCT, GCT, PCR, min-norm OLS, ridge.

All estimators shrink the canonical least-squares coefficients and lift
the result back to the original coordinates through the minimum-norm map,
so the fitted vector always lies in the row space of the design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np
from numpy.typing import NDArray

from .canonical import (
    DEFAULT_RANK_REL_TOL,
    CanonicalCoefficients,
    CanonicalDecomposition,
    Dataset,
    canonical_ls,
    canonicalize,
    to_beta,
)
from .thresholding import SOFT_RULE, ThresholdRule, apply_rule

FloatArray = NDArray[np.float64]


@dataclass(frozen=True)
class GctConfig:
    """Hyperparameters of a generalized canonical thresholding fit."""

    tau: float
    phi: float = 0.0
    rule: ThresholdRule = SOFT_RULE

    def __post_init__(self) -> None:
        if self.tau < 0 or math.isnan(self.tau):
            raise ValueError(f"tau must be nonnegative, got {self.tau!r}")
        if self.phi < 0 or not math.isfinite(self.phi):
            raise ValueError(f"phi must be nonnegative, got {self.phi!r}")


@dataclass(frozen=True)
class PcrConfig:
    components: int


@dataclass(frozen=True)
class RidgeConfig:
    lambda_reg: float


MethodConfig = Union[GctConfig, PcrConfig, RidgeConfig]


@dataclass(frozen=True)
class FitResult:
    """A fitted model in both original and canonical coordinates."""

    beta: FloatArray
    theta_hat: FloatArray
    config: MethodConfig
    decomposition: CanonicalDecomposition
    centering_offsets: Optional[Tuple[FloatArray, float]] = None


def _eigen_weights(dec: CanonicalDecomposition, phi: float) -> FloatArray:
    """Diagonal of Lambda^phi: singular values raised to phi, i.e. lam^(phi/2)."""
    return dec.eigenvalues ** (phi / 2.0)


def gct_theta(
    dec: CanonicalDecomposition,
    theta_ls: CanonicalCoefficients,
    config: GctConfig,
) -> FloatArray:
    """Shrink canonical LS coefficients: Lambda^{-phi} T_tau[Lambda^{phi} theta]."""
    w = _eigen_weights(dec, config.phi)
    return apply_rule(config.rule, w * theta_ls.values, config.tau) / w


def _fit(
    dec: CanonicalDecomposition, theta_hat: FloatArray, config: MethodConfig
) -> FitResult:
    beta = to_beta(dec, CanonicalCoefficients(theta_hat))
    return FitResult(beta=beta, theta_hat=theta_hat, config=config, decomposition=dec)


def _gct_fit(
    dec: CanonicalDecomposition, theta_ls: CanonicalCoefficients, config: GctConfig
) -> FitResult:
    return _fit(dec, gct_theta(dec, theta_ls, config), config)


def _pcr_fit(
    dec: CanonicalDecomposition, theta_ls: CanonicalCoefficients, m: int
) -> FitResult:
    if not 0 <= m <= dec.rank:
        raise ValueError(f"m must lie in [0, {dec.rank}], got {m}")
    theta_hat = theta_ls.values.copy()
    theta_hat[m:] = 0.0
    return _fit(dec, theta_hat, PcrConfig(components=m))


def _ridge_fit(
    dec: CanonicalDecomposition, theta_ls: CanonicalCoefficients, lambda_reg: float
) -> FitResult:
    shrink = dec.eigenvalues / (dec.eigenvalues + lambda_reg)
    return _fit(dec, shrink * theta_ls.values, RidgeConfig(lambda_reg=lambda_reg))


def _decompose(
    dataset: Dataset, rank_rel_tol: float
) -> Tuple[CanonicalDecomposition, CanonicalCoefficients]:
    dec = canonicalize(dataset, rank_rel_tol)
    return dec, canonical_ls(dec, dataset.response)


def fit_gct(
    dataset: Dataset,
    config: GctConfig,
    rank_rel_tol: float = DEFAULT_RANK_REL_TOL,
) -> FitResult:
    """Generalized canonical thresholding fit."""
    return _gct_fit(*_decompose(dataset, rank_rel_tol), config)


def fit_nct(
    dataset: Dataset,
    tau: float,
    rank_rel_tol: float = DEFAULT_RANK_REL_TOL,
) -> FitResult:
    """Natural canonical thresholding: soft rule with no eigenvalue weighting."""
    return fit_gct(dataset, GctConfig(tau=tau, phi=0.0, rule=SOFT_RULE), rank_rel_tol)


def fit_min_norm_ls(
    dataset: Dataset, rank_rel_tol: float = DEFAULT_RANK_REL_TOL
) -> FitResult:
    """Minimum l2-norm least squares (thresholding at level 0)."""
    return fit_nct(dataset, 0.0, rank_rel_tol)


def fit_pcr(
    dataset: Dataset,
    m: int,
    rank_rel_tol: float = DEFAULT_RANK_REL_TOL,
) -> FitResult:
    """Least squares on the first m principal-component scores."""
    return _pcr_fit(*_decompose(dataset, rank_rel_tol), m)


def fit_ridge(
    dataset: Dataset,
    lambda_reg: float,
    rank_rel_tol: float = DEFAULT_RANK_REL_TOL,
) -> FitResult:
    """Ridge regression restricted to the row space, in spectral form."""
    if lambda_reg < 0 or math.isnan(lambda_reg):
        raise ValueError(f"lambda_reg must be nonnegative, got {lambda_reg!r}")
    return _ridge_fit(*_decompose(dataset, rank_rel_tol), lambda_reg)


def predict(fit: FitResult, Xnew: FloatArray) -> FloatArray:
    """Predict responses for new design rows, honoring centering offsets."""
    Xnew = np.asarray(Xnew, dtype=np.float64)
    if Xnew.ndim != 2 or Xnew.shape[1] != fit.beta.shape[0]:
        raise ValueError(
            f"Xnew must have {fit.beta.shape[0]} columns, got shape {Xnew.shape}"
        )
    if fit.centering_offsets is None:
        return Xnew @ fit.beta
    col_means, y_mean = fit.centering_offsets
    return y_mean + (Xnew - col_means) @ fit.beta


def default_tau(
    sigma: float,
    n: int,
    r: int,
    delta: float,
    alpha: float,
    phi: float = 0.0,
    lambda1: float = 1.0,
) -> float:
    """Theory-driven threshold level: lambda1^(phi/2) * sigma * scale(n, r).

    With phi = 0 this is sigma times the universal scale
    (2/sqrt(n)) * log(2r/delta)^(1/alpha).
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"alpha must lie in (0, 2], got {alpha!r}")
    if phi < 0:
        raise ValueError("phi must be nonnegative")
    if lambda1 <= 0:
        raise ValueError("lambda1 must be positive")
    scale = (2.0 / math.sqrt(n)) * math.log(2.0 * r / delta) ** (1.0 / alpha)
    return lambda1 ** (phi / 2.0) * sigma * scale
