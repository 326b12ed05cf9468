"""Canonical form of a linear regression problem.

The design matrix scaled by n^{-1/2} is factored as
X / sqrt(n) = V diag(sqrt(eigenvalues)) U^T, with U and V orthonormal.
Rewriting Y = X beta + eps in the orthonormal basis sqrt(n) V turns the
problem into a sequence model with coefficients theta = Lambda U^T beta,
which is where all the thresholding estimators in this package operate.

The factors come from one spectral core: a symmetric eigendecomposition
(``eigh``) of the smaller of the scaled Gram matrices X X^T / n and
X^T X / n, with the other set of vectors recovered by one product with X.
CV fold spectra and kernel matrices go through the same core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

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
    """X / sqrt(n) = V diag(sqrt(eigenvalues)) U^T, small components dropped.

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


def _gram_spectrum(
    gram: FloatArray, rank_rel_tol: float
) -> Tuple[FloatArray, FloatArray, float]:
    """Eigenpairs of a symmetric scaled Gram matrix above the rank floor.

    Returns (eigenvalues, vectors, smallest): the eigenvalues greater than
    rank_rel_tol times the largest one in non-increasing order (a stable
    sort, so exactly equal eigenvalues keep index order), their orthonormal
    eigenvectors as columns, and the smallest eigenvalue before the floor.
    Nothing is kept when the largest eigenvalue is not positive.
    """
    if not 0.0 < rank_rel_tol < 1.0:
        raise ValueError("rank_rel_tol must lie in (0, 1)")
    eig, vec = np.linalg.eigh(gram)  # ascending
    r = int(np.count_nonzero(eig > rank_rel_tol * eig[-1]))
    order = np.argsort(-eig, kind="stable")[:r]
    return eig[order], vec[:, order], float(eig[0])


def _pivot_signs(vectors: FloatArray) -> FloatArray:
    """Column signs that make each column's largest-magnitude entry positive
    (the first such entry on ties)."""
    pivot = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[pivot, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return signs


def canonicalize(
    dataset: Dataset, rank_rel_tol: float = DEFAULT_RANK_REL_TOL
) -> CanonicalDecomposition:
    """Compute the canonical decomposition of a dataset.

    When n <= d the eigenvectors V of X X^T / n give U = X^T V / (sqrt(n) s);
    otherwise the eigenvectors U of X^T X / n give V = X U / (sqrt(n) s),
    where s holds the square roots of the eigenvalues.  Components with
    eigenvalue <= rank_rel_tol * (largest eigenvalue) are discarded.  Each
    retained right vector is sign-normalized so that its largest-magnitude
    entry is positive (first such entry on ties); the paired left vector
    flips with it.

    Accuracy: ``eigh`` of a Gram matrix gives every eigenvalue with an
    absolute error of about eps * lambda_max, so a retained component with
    eigenvalue lambda_j is resolved to about eps * lambda_max / lambda_j
    relative, and the minimum-norm coefficients and fitted values built
    from the decomposition are accurate to about
    eps * lambda_max / lambda_min, with lambda_min the smallest retained
    eigenvalue (an SVD of X would give about eps * sqrt(lambda_max /
    lambda_min)).  At lambda_max / lambda_min = 1e10 that is about 1e-6;
    at the default floor of 1e-12 it is about 1e-4.
    """
    X = dataset.design
    n, d = X.shape
    if n <= d:
        eigenvalues, V, _ = _gram_spectrum(X @ X.T / n, rank_rel_tol)
        U = X.T @ V / np.sqrt(n * eigenvalues)
    else:
        eigenvalues, U, _ = _gram_spectrum(X.T @ X / n, rank_rel_tol)
        V = X @ U / np.sqrt(n * eigenvalues)
    if eigenvalues.size == 0:
        raise ZeroDesignError("zero design matrix")
    signs = _pivot_signs(U)
    return CanonicalDecomposition(
        eigenvalues=eigenvalues,
        right_vectors=U * signs,
        left_vectors=V * signs,
        rank_tolerance=rank_rel_tol,
    )


def canonical_ls(dec: CanonicalDecomposition, Y: FloatArray) -> FloatArray:
    """Least-squares coefficients in the canonical basis: V^T Y / sqrt(n)."""
    Y = np.asarray(Y, dtype=np.float64)
    n = dec.left_vectors.shape[0]
    if Y.shape != (n,):
        raise ValueError(f"response must have length {n}, got {Y.shape}")
    return dec.left_vectors.T @ Y / np.sqrt(n)


def to_beta(dec: CanonicalDecomposition, theta: FloatArray) -> FloatArray:
    """Minimum-norm lift back to the original coordinates: U Lambda^{-1} theta."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (dec.rank,):
        raise ValueError(f"theta must have length {dec.rank}, got {theta.shape}")
    return dec.right_vectors @ (theta / dec.singular_values)


def to_theta(dec: CanonicalDecomposition, beta: FloatArray) -> FloatArray:
    """Canonical coefficients of a given vector: Lambda U^T beta."""
    beta = np.asarray(beta, dtype=np.float64)
    d = dec.right_vectors.shape[0]
    if beta.shape != (d,):
        raise ValueError(f"beta must have length {d}, got {beta.shape}")
    return dec.singular_values * (dec.right_vectors.T @ beta)
