"""Thresholding-family estimators: NCT, GCT, PCR, min-norm OLS, ridge.

All estimators shrink the canonical least-squares coefficients and lift
the result back to the original coordinates through the minimum-norm map,
so the fitted vector always lies in the row space of the design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.typing import NDArray

from .canonical import (
    CanonicalDecomposition,
    Dataset,
    canonical_ls,
    canonicalize,
    to_beta,
)
from .errors import _array, _integer, _real
from .metrics import threshold_scale
from .thresholding import SOFT_RULE, ThresholdRule, apply_rule

FloatArray = NDArray[np.float64]


@dataclass(frozen=True)
class GctConfig:
    """Hyperparameters of a generalized canonical thresholding fit."""

    tau: float
    phi: float = 0.0
    rule: ThresholdRule = SOFT_RULE

    def __post_init__(self) -> None:
        _real("GctConfig.tau", self.tau, 0, math.inf, "[]")
        _real("GctConfig.phi", self.phi, 0, math.inf, "[)")


@dataclass(frozen=True)
class PcrConfig:
    components: int


@dataclass(frozen=True)
class RidgeConfig:
    lambda_reg: float


MethodConfig = Union[GctConfig, PcrConfig, RidgeConfig]


@dataclass(frozen=True, eq=False)
class FitResult:
    """A fitted model in both original and canonical coordinates."""

    beta: FloatArray
    theta_hat: FloatArray
    config: MethodConfig
    decomposition: CanonicalDecomposition


def _shrink(
    eigenvalues: FloatArray,
    theta: FloatArray,
    rule: ThresholdRule,
    tau: float,
    phi: float,
) -> FloatArray:
    """Lambda^{-phi} T_tau[Lambda^{phi} theta], where the diagonal of
    Lambda^phi holds the singular values raised to phi, lam^(phi/2)."""
    weights = eigenvalues ** (phi / 2.0)
    return apply_rule(rule, weights * theta, tau) / weights


def _fit(
    dec: CanonicalDecomposition, theta_hat: FloatArray, config: MethodConfig
) -> FitResult:
    beta = to_beta(dec, theta_hat)
    return FitResult(beta=beta, theta_hat=theta_hat, config=config, decomposition=dec)


def fit_gct(dataset: Dataset, config: GctConfig) -> FitResult:
    """Generalized canonical thresholding fit."""
    dec = canonicalize(dataset)
    theta_ls = canonical_ls(dec, dataset.response)
    theta_hat = _shrink(dec.eigenvalues, theta_ls, config.rule, config.tau, config.phi)
    return _fit(dec, theta_hat, config)


def fit_nct(dataset: Dataset, tau: float) -> FitResult:
    """Natural canonical thresholding: soft rule with no eigenvalue weighting."""
    return fit_gct(dataset, GctConfig(tau=tau, phi=0.0, rule=SOFT_RULE))


def fit_min_norm_ls(dataset: Dataset) -> FitResult:
    """Minimum l2-norm least squares (thresholding at level 0)."""
    return fit_nct(dataset, 0.0)


def fit_pcr(dataset: Dataset, m: int) -> FitResult:
    """Least squares on the first m principal-component scores.

    m is an integer (numpy's too) in [0, rank]; anything else raises
    ``ValueError`` naming m, before the decomposition unless m lies between
    the rank and min(n, d), which only the decomposition can tell.
    """
    m = _integer("m", m, 0)
    most = min(dataset.n, dataset.d)
    if m > most:
        raise ValueError(f"m must be at most min(n, d) = {most}, got {m}")
    dec = canonicalize(dataset)
    if m > dec.rank:
        raise ValueError(f"m must be at most the rank {dec.rank}, got {m}")
    theta_hat = canonical_ls(dec, dataset.response)
    theta_hat[m:] = 0.0
    return _fit(dec, theta_hat, PcrConfig(components=m))


def fit_ridge(dataset: Dataset, lambda_reg: float) -> FitResult:
    """Ridge regression restricted to the row space, in spectral form.

    An infinite penalty gives the zero estimator."""
    _real("lambda_reg", lambda_reg, 0, math.inf, "[]")
    dec = canonicalize(dataset)
    shrink = dec.eigenvalues / (dec.eigenvalues + lambda_reg)
    theta_hat = shrink * canonical_ls(dec, dataset.response)
    return _fit(dec, theta_hat, RidgeConfig(lambda_reg=lambda_reg))


def predict(fit: FitResult, Xnew: FloatArray) -> FloatArray:
    """Predict responses for new design rows: Xnew @ beta, with no intercept.

    A fit on centered data predicts centered responses; the CLI's model file
    stores the column and response means and adds them back.

    The rows are not scanned for non-finite entries (that would cost more
    than the product): a row with a NaN entry predicts NaN, and a row with
    an infinite entry predicts +-inf, or NaN where infinities of both signs
    meet or an infinity meets a zero coefficient.  Every other row is
    predicted as if that row were finite.
    """
    Xnew = _array("Xnew", Xnew, ("m", fit.beta.shape[0]), scan=False)
    return Xnew @ fit.beta


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
    _real("sigma", sigma, 0, math.inf, "[)")
    _real("phi", phi, 0, math.inf, "[)")
    _real("lambda1", lambda1, 0, math.inf, "()")
    return lambda1 ** (phi / 2.0) * sigma * threshold_scale(n, r, delta, alpha)
