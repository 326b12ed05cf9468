"""Canonical thresholding regression in an RKHS.

The Gram matrix scaled by 1/n plays the role of the sample covariance:
its eigendecomposition K/n = V Lambda^2 V^T yields the same canonical
basis sqrt(n) V as in the linear case, the shrunken canonical
coefficients determine the in-sample fit, and the minimum-RKHS-norm
interpolant of that fit is a kernel expansion with explicit dual
coefficients alpha = V Lambda^{-2} theta_hat / sqrt(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from numpy.typing import NDArray

from .canonical import _gram_spectrum, _pivot_signs
from .errors import NotPositiveSemidefiniteError, ZeroDesignError
from .estimators import GctConfig, _shrink
from .metrics import joint_effective_dimension

FloatArray = NDArray[np.float64]

# relative eigenvalue floor and PSD slack of every kernel decomposition
KERNEL_RANK_REL_TOL = 1e-10


@dataclass(frozen=True)
class KernelSpec:
    """A positive definite kernel: linear, RBF, or polynomial."""

    kind: str  # "linear" | "rbf" | "poly"
    gamma: float = 1.0  # rbf
    degree: int = 2  # poly
    coef0: float = 0.0  # poly
    scale: float = 1.0  # poly

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "rbf", "poly"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "rbf" and self.gamma < 0:
            raise ValueError("rbf gamma must be nonnegative")
        if self.kind == "poly":
            if self.degree < 1:
                raise ValueError("poly degree must be a positive integer")
            if self.scale <= 0:
                raise ValueError("poly scale must be positive")


def _cross_gram(spec: KernelSpec, A: FloatArray, B: FloatArray) -> FloatArray:
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


def gram(points: FloatArray, spec: KernelSpec) -> FloatArray:
    """Kernel matrix K_ij = k(x_i, x_j), exactly symmetric."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 1:
        raise ValueError("points must be a nonempty 2-D array")
    if not np.all(np.isfinite(points)):
        row, column = (int(i) for i in np.argwhere(~np.isfinite(points))[0])
        raise ValueError(f"points has a non-finite value at row {row}, column {column}")
    K = _cross_gram(spec, points, points)
    if not np.all(np.isfinite(K)):
        raise ValueError("non-finite kernel matrix entries")
    return (K + K.T) / 2.0


def kernel_canonicalize(K: FloatArray) -> Tuple[FloatArray, FloatArray]:
    """Eigendecomposition of K/n with the small-spectrum floor applied.

    Returns (eigenvalues, left_vectors) with eigenvalues non-increasing,
    from the spectral core that ``canonicalize`` uses.  Eigenvalues within
    KERNEL_RANK_REL_TOL (1e-10) of zero, relative to the top one, are
    dropped; one below -KERNEL_RANK_REL_TOL times the top one raises an
    error.  The floor is fixed.  Each left vector's largest-magnitude entry
    is positive.
    """
    K = np.asarray(K, dtype=np.float64)
    n = K.shape[0]
    if K.shape != (n, n):
        raise ValueError("kernel matrix must be square")
    # exact symmetry (what ``gram`` returns) implies the tolerance check
    if not np.array_equal(K, K.T) and not np.allclose(
        K, K.T, atol=1e-10 * max(1.0, float(np.abs(K).max()))
    ):
        raise ValueError("kernel matrix must be symmetric")
    if not np.any(K):
        raise ZeroDesignError("zero kernel matrix")

    eig, vec, smallest = _gram_spectrum(K / n, KERNEL_RANK_REL_TOL)
    if eig.size == 0 or smallest < -KERNEL_RANK_REL_TOL * eig[0]:
        raise NotPositiveSemidefiniteError("kernel matrix not positive semidefinite")
    return eig, vec * _pivot_signs(vec)


@dataclass(frozen=True)
class KernelPredictor:
    """What prediction needs: f(x) = sum_i alpha_i k(x_i, x), plus the
    response mean when the fit centered the response (else None)."""

    training_points: FloatArray
    dual_coeffs: FloatArray
    kernel: KernelSpec
    response_mean: Optional[float]


@dataclass(frozen=True)
class KernelModel(KernelPredictor):
    """A fitted RKHS model: the predictor plus the retained spectrum."""

    theta_hat: FloatArray
    eigenvalues: FloatArray
    left_vectors: FloatArray
    config: GctConfig

    @property
    def rank(self) -> int:
        return self.eigenvalues.shape[0]


def fit_kernel_gct(
    points: FloatArray,
    Y: FloatArray,
    spec: KernelSpec,
    config: GctConfig,
    *,
    center_response: bool = False,
) -> KernelModel:
    """Fit the kernel thresholding estimator.

    theta_hat = Lambda^{-phi} T_tau[Lambda^{phi} V^T Y / sqrt(n)] and
    alpha = V Lambda^{-2} theta_hat / sqrt(n).  With center_response the
    response mean is subtracted first and added back by every prediction.
    """
    points = np.asarray(points, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    n = points.shape[0]
    if Y.shape != (n,):
        raise ValueError(f"response must have length {n}, got {Y.shape}")
    response_mean = None
    if center_response:
        response_mean = float(Y.mean())
        Y = Y - response_mean

    K = gram(points, spec)
    eig, vec = kernel_canonicalize(K)
    theta_ls = vec.T @ Y / math.sqrt(n)
    theta_hat = _shrink(eig, theta_ls, config.rule, config.tau, config.phi)
    alpha = vec @ (theta_hat / eig) / math.sqrt(n)
    return KernelModel(
        training_points=points,
        dual_coeffs=alpha,
        theta_hat=theta_hat,
        eigenvalues=eig,
        left_vectors=vec,
        config=config,
        kernel=spec,
        response_mean=response_mean,
    )


def predict_kernel_batch(model: KernelPredictor, X: FloatArray) -> FloatArray:
    """Predict at the rows of X via the dual form sum_i alpha_i k(x_i, x)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.training_points.shape[1]:
        raise ValueError(
            f"points must have {model.training_points.shape[1]} columns"
        )
    values = _cross_gram(model.kernel, X, model.training_points) @ model.dual_coeffs
    if model.response_mean is not None:
        values = values + model.response_mean
    return values


def in_sample_fit(model: KernelModel) -> FloatArray:
    """Fitted values at the training points, sqrt(n) V theta_hat."""
    n = model.training_points.shape[0]
    values = math.sqrt(n) * model.left_vectors @ model.theta_hat
    if model.response_mean is not None:
        values = values + model.response_mean
    return values


@dataclass(frozen=True)
class InSampleError:
    total: float  # n^{-1} sum_i (fhat(x_i) - f(x_i))^2
    canonical: float  # ||theta_hat - V^T f / sqrt(n)||^2
    outside_span: float  # mass of f outside span(V), divided by n


def kernel_in_sample_error(
    model: KernelModel, f_true_values: FloatArray
) -> InSampleError:
    """Average squared in-sample error against true function values.

    The total splits exactly into the canonical-coefficient distance plus
    the part of f outside the retained spectral span.
    """
    f = np.asarray(f_true_values, dtype=np.float64)
    n = model.training_points.shape[0]
    if f.shape != (n,):
        raise ValueError(f"f_true_values must have length {n}, got {f.shape}")
    if model.response_mean is not None:
        f = f - model.response_mean
    fitted = math.sqrt(n) * model.left_vectors @ model.theta_hat
    total = float(np.sum((fitted - f) ** 2)) / n
    theta_true = model.left_vectors.T @ f / math.sqrt(n)
    canonical = float(np.sum((model.theta_hat - theta_true) ** 2))
    projection = math.sqrt(n) * model.left_vectors @ theta_true
    outside = float(np.sum((f - projection) ** 2)) / n
    return InSampleError(total=total, canonical=canonical, outside_span=outside)


def kernel_effective_dimension(K: FloatArray, f_values: FloatArray, q: float) -> float:
    """Joint effective dimension || V^T f / ||f||_2 ||_q^q of a kernel problem."""
    f = np.asarray(f_values, dtype=np.float64)
    norm = float(np.linalg.norm(f))
    if norm <= 0:
        raise ValueError("f must be nonzero")
    _, vec = kernel_canonicalize(np.asarray(K, dtype=np.float64))
    return joint_effective_dimension(vec.T @ f / norm, 1.0, q)
