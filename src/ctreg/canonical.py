"""Canonical form of a linear regression problem.

The design matrix scaled by n^{-1/2} is factored through its thin SVD,
X / sqrt(n) = V diag(sqrt(eigenvalues)) U^T.  Rewriting Y = X beta + eps
in the orthonormal basis sqrt(n) V turns the problem into a sequence
model with coefficients theta = Lambda U^T beta, which is where all the
thresholding estimators in this package operate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errors import ZeroDesignError

FloatArray = NDArray[np.float64]

DEFAULT_RANK_REL_TOL = 1e-12


@dataclass(frozen=True)
class Dataset:
    """A regression sample: n x d design matrix and length-n response."""

    design: FloatArray
    response: FloatArray
    centered: bool = False

    def __post_init__(self) -> None:
        design = np.asarray(self.design, dtype=np.float64)
        response = np.asarray(self.response, dtype=np.float64)
        if design.ndim != 2:
            raise ValueError("design must be a 2-D array")
        if response.ndim != 1:
            raise ValueError("response must be a 1-D array")
        if design.shape[0] != response.shape[0]:
            raise ValueError(
                f"response length {response.shape[0]} does not match "
                f"design rows {design.shape[0]}"
            )
        if design.shape[0] < 1 or design.shape[1] < 1:
            raise ValueError("design must have at least one row and one column")
        for name, values in (("design", design), ("response", response)):
            if not np.all(np.isfinite(values)):
                index = tuple(int(i) for i in np.argwhere(~np.isfinite(values))[0])
                raise ValueError(f"{name} has a non-finite value at index {index}")
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "response", response)

    @property
    def n(self) -> int:
        return self.design.shape[0]

    @property
    def d(self) -> int:
        return self.design.shape[1]


@dataclass(frozen=True)
class CanonicalDecomposition:
    """Thin SVD of X / sqrt(n) with small components dropped.

    ``eigenvalues`` holds the non-increasing, strictly positive eigenvalues
    of the sample covariance X^T X / n; the singular values of X / sqrt(n)
    are their square roots.
    """

    eigenvalues: FloatArray
    right_vectors: FloatArray  # d x r, orthonormal columns
    left_vectors: FloatArray  # n x r, orthonormal columns
    rank_tolerance: float

    @property
    def rank(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def singular_values(self) -> FloatArray:
        return np.sqrt(self.eigenvalues)


@dataclass(frozen=True)
class CanonicalCoefficients:
    """Coefficient vector in the canonical basis."""

    values: FloatArray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "values", np.asarray(self.values, dtype=np.float64)
        )


def canonicalize(
    dataset: Dataset, rank_rel_tol: float = DEFAULT_RANK_REL_TOL
) -> CanonicalDecomposition:
    """Compute the canonical decomposition of a dataset.

    Components with eigenvalue <= rank_rel_tol * (largest eigenvalue) are
    discarded.  Each retained right singular vector is sign-normalized so
    that its largest-magnitude entry is positive (first such entry on
    ties); the paired left vector flips with it.
    """
    if not 0.0 < rank_rel_tol < 1.0:
        raise ValueError("rank_rel_tol must lie in (0, 1)")
    X = dataset.design
    n = dataset.n
    if not np.any(X):
        raise ZeroDesignError("zero design matrix")

    V, s, Ut = np.linalg.svd(X / np.sqrt(n), full_matrices=False)
    eigenvalues = s**2
    keep = eigenvalues > rank_rel_tol * eigenvalues[0]
    r = int(np.count_nonzero(keep))
    eigenvalues = eigenvalues[:r]
    V = V[:, :r]
    U = Ut[:r].T

    # deterministic sign: largest-magnitude entry of each right vector positive
    pivot = np.argmax(np.abs(U), axis=0)
    signs = np.sign(U[pivot, np.arange(r)])
    signs[signs == 0] = 1.0
    U = U * signs
    V = V * signs

    return CanonicalDecomposition(
        eigenvalues=eigenvalues,
        right_vectors=U,
        left_vectors=V,
        rank_tolerance=rank_rel_tol,
    )


def canonical_ls(
    dec: CanonicalDecomposition, Y: FloatArray
) -> CanonicalCoefficients:
    """Least-squares coefficients in the canonical basis: V^T Y / sqrt(n)."""
    Y = np.asarray(Y, dtype=np.float64)
    n = dec.left_vectors.shape[0]
    if Y.shape != (n,):
        raise ValueError(f"response must have length {n}, got {Y.shape}")
    return CanonicalCoefficients(dec.left_vectors.T @ Y / np.sqrt(n))


def to_beta(
    dec: CanonicalDecomposition, theta: CanonicalCoefficients
) -> FloatArray:
    """Minimum-norm lift back to the original coordinates: U Lambda^{-1} theta."""
    values = theta.values
    if values.shape != (dec.rank,):
        raise ValueError(
            f"theta must have length {dec.rank}, got {values.shape}"
        )
    return dec.right_vectors @ (values / dec.singular_values)


def to_theta(dec: CanonicalDecomposition, beta: FloatArray) -> CanonicalCoefficients:
    """Canonical coefficients of a given vector: Lambda U^T beta."""
    beta = np.asarray(beta, dtype=np.float64)
    d = dec.right_vectors.shape[0]
    if beta.shape != (d,):
        raise ValueError(f"beta must have length {d}, got {beta.shape}")
    return CanonicalCoefficients(dec.singular_values * (dec.right_vectors.T @ beta))
