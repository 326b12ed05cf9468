"""Canonical form of a linear regression problem.

The design matrix scaled by n^{-1/2} is factored as
X / sqrt(n) = V diag(sqrt(eigenvalues)) U^T, with U and V orthonormal.
Rewriting Y = X beta + eps in the orthonormal basis sqrt(n) V turns the
problem into a sequence model with coefficients theta = Lambda U^T beta,
which is where all the thresholding estimators in this package operate.

The factors come from one spectral core: a symmetric eigendecomposition
(``eigh``) of the smaller of the scaled Gram matrices X X^T / n and
X^T X / n, with the other set of vectors recovered by one product with X.
CV fold spectra go through the same core, and kernel matrices through the
same eigensolver (``_blas.eigh_factors``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Tuple, TypeVar

import numpy as np
from numpy.typing import NDArray

from ._blas import eigh_factors, pinned
from .errors import ZeroDesignError, _array

FloatArray = NDArray[np.float64]
T = TypeVar("T")

# relative eigenvalue floor of every design decomposition (see canonicalize)
RANK_REL_TOL = 1e-12


@dataclass(frozen=True)
class Dataset:
    """A regression sample: n x d design matrix and length-n response.

    Construction copies both arrays and makes the copies read-only, so a
    Dataset never changes after it is made.  That lets it keep a private
    memo of what its arrays determine: the products of X that every
    decomposition reads (X X^T, n*n floats, or X^T X, X^T y and the squared
    row norms, d*d + d + n floats, or both when the full decomposition and
    the CV folds take different routes; see ``_products``), the full
    decomposition, filled by ``canonicalize`` (d*r + n*r floats for rank
    r), and the spectra of the last fold split a CV tuner used (see
    ``kfold_cv``).  The memo is not part of the repr, of equality (two
    Datasets are equal when their arrays are) or of pickling, and
    ``dataclasses.replace`` or a copy starts with an empty one.
    """

    design: FloatArray
    response: FloatArray
    _memo: Dict[str, object] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        design = _array("design", self.design, ("n", "d"), scan=False, copy=True)
        response = _array("response", self.response, design.shape[:1], scan=False, copy=True)
        # copy both, then scan both: scanning the design between the two
        # copies raised the cv_wide benchmark's peak RSS by 5 MB (through the
        # layout of the glibc heap that a later SVD reuses)
        _array("design", design)
        _array("response", response)
        design.flags.writeable = False
        response.flags.writeable = False
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "response", response)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return np.array_equal(self.design, other.design) and np.array_equal(
            self.response, other.response
        )

    def __reduce__(self):
        return (type(self), (self.design, self.response))

    @property
    def n(self) -> int:
        return self.design.shape[0]

    @property
    def d(self) -> int:
        return self.design.shape[1]


@dataclass(frozen=True, eq=False)
class CanonicalDecomposition:
    """X / sqrt(n) = V diag(sqrt(eigenvalues)) U^T, small components dropped.

    ``eigenvalues`` holds the non-increasing, strictly positive eigenvalues
    of the sample covariance X^T X / n; the singular values of X / sqrt(n)
    are their square roots.
    """

    eigenvalues: FloatArray
    right_vectors: FloatArray  # d x r, orthonormal columns
    left_vectors: FloatArray  # n x r, orthonormal columns

    @property
    def rank(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def singular_values(self) -> FloatArray:
        return np.sqrt(self.eigenvalues)


def _gram_spectrum(gram: FloatArray) -> Tuple[FloatArray, FloatArray]:
    """Eigenpairs of a symmetric Gram matrix above the rank floor.

    Returns (eigenvalues, vectors): the eigenvalues greater than
    RANK_REL_TOL times the largest one in non-increasing order (a stable
    sort, so exactly equal eigenvalues keep index order) and their
    orthonormal eigenvectors as columns (a new array the caller may write).
    Nothing is kept when the largest eigenvalue is not positive.  The floor
    is relative, so any positive scaling of the matrix keeps the same
    components.

    The n x n matrix is factored in its own buffer (``_blas.eigh_factors``)
    and its vectors formed, so every caller passes a temporary: one that is
    exactly symmetric, or an F-order copy.  Either gives the bits of
    ``numpy.linalg.eigh(gram)``.  The peak is ``gram`` plus about 1.5 n^2
    floats (the packed reflectors, and the ``dstedc`` workspace or, while
    the vectors are formed, the unpacked reflectors); Z and then the
    formed vectors are written over ``gram``, and the retained ones are
    copied out of them.
    """
    factors = eigh_factors(gram)
    order = _retained(factors.eigenvalues, RANK_REL_TOL)
    return factors.eigenvalues[order], factors.form()[:, order]


def _retained(eig: FloatArray, rank_rel_tol: float) -> NDArray[np.intp]:
    """The indices of the ascending eigenvalues eig greater than
    rank_rel_tol times the largest one, the largest first."""
    r = int(np.count_nonzero(eig > rank_rel_tol * eig[-1]))
    return np.argsort(-eig, kind="stable")[:r]


def _pivot_signs(vectors: FloatArray) -> FloatArray:
    """Column signs that make each column's largest-magnitude entry positive
    (the first such entry on ties, +1 for a zero column).

    The signs come from the column maxima and minima, two reductions that
    make no copy of the matrix in either memory order; only a column whose
    largest and smallest entries are an exact +-pair is scanned for its
    first largest-magnitude entry.
    """
    top = vectors.max(axis=0)
    bottom = vectors.min(axis=0)
    signs = np.where(-bottom > top, -1.0, 1.0)
    for j in np.flatnonzero((top == -bottom) & (top > 0)):
        column = vectors[:, j]
        signs[j] = np.sign(column[np.argmax(np.abs(column) == top[j])])
    return signs


def _memoized(memo: dict, name: str, key: Hashable, make: Callable[[], T]) -> T:
    """The value kept under ``name`` in a memo if it was made for ``key``,
    else ``make()``, kept there in its place.

    The entry is stored and read as one (key, value) tuple: threads racing
    on one memo may each compute it, but a hit always matches its key.
    """
    entry = memo.get(name)
    if entry is not None and entry[0] == key:
        return entry[1]
    value = make()
    memo[name] = (key, value)
    return value


def _products(dataset: Dataset, wide: bool) -> Tuple[FloatArray, ...]:
    """The products of X that its decompositions read: (X X^T,) when
    ``wide``, else (X^T X, X^T y, the squared row norms of X), which a tall
    CV fold downdates.

    They are formed once per Dataset, on one BLAS thread (see
    ``_blas.pinned``), so no bit depends on the BLAS thread count, and kept
    read-only in its memo; ``canonicalize`` and every fold split read them.
    """

    def make() -> Tuple[FloatArray, ...]:
        X = dataset.design
        with pinned():
            if wide:
                products = (X @ X.T,)
            else:
                row_norms = np.einsum("ij,ij->i", X, X)
                products = (X.T @ X, X.T @ dataset.response, row_norms)
        for array in products:
            array.flags.writeable = False
        return products

    name = "outer_products" if wide else "inner_products"
    return _memoized(dataset._memo, name, None, make)


def canonicalize(dataset: Dataset) -> CanonicalDecomposition:
    """Compute the canonical decomposition of a dataset.

    When n <= d the eigenvectors V of X X^T / n give U = X^T V / (sqrt(n) s);
    otherwise the eigenvectors U of X^T X / n give V = X U / (sqrt(n) s),
    where s holds the square roots of the eigenvalues.  Components with
    eigenvalue <= RANK_REL_TOL * (largest eigenvalue) are discarded; the
    floor is fixed, so every fit and CV fold uses the same one.  Each
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
    at the floor of 1e-12 it is about 1e-4.

    The decomposition is computed once per Dataset and kept in its memo:
    later calls return the same object, whose arrays are read-only.  Its
    Gram matrix is the product X X^T or X^T X that the memo keeps for the
    CV folds too (see ``_products``), divided by n.

    Memory: each vector matrix is built once and scaled and sign-flipped in
    place, and the memo keeps those same arrays and the products.  Beyond X
    and the products, the m x m Gram matrix (m = min(n, d)) is decomposed
    in its own buffer, next to about 1.5 m^2 floats (the packed reflectors
    and a LAPACK workspace; see ``_gram_spectrum``); after that the peak is
    that buffer plus one array of retained vectors: d*r floats when
    n <= d, else n*r.  At 200 x 4000 and at 4000 x 200 the peak traced by
    tracemalloc is 7.4 MB, nearly all of it what the memo keeps: 6.7 MB of
    decomposition and 0.3 MB of products.

    Threads: the Gram product, its ``eigh`` and the product that recovers
    the other vectors run with OpenBLAS pinned to one thread (see
    ``_blas.pinned``), as the CV fold spectra do, so the decomposition,
    and every fit built on it, does not depend on the BLAS thread count,
    and no OpenBLAS worker is left spinning into the next CV fold map.  A
    memo hit takes no pin.  Alone, the pinned decomposition is slower, a
    cost paid once per Dataset: medians on 2 cores (numpy 2.4 with its
    OpenBLAS) went 19-20 -> 33 ms at 200 x 4000, 46-52 -> 77-84 ms at
    2000 x 500 and 6-8 -> 9 ms at 1000 x 200.  In a loop that alternates
    fits and CV, as ``run_experiment`` does, the pin is a net gain.
    """
    return _memoized(dataset._memo, "decomposition", None, lambda: _decompose(dataset))


def _decompose(dataset: Dataset) -> CanonicalDecomposition:
    X = dataset.design
    n, d = X.shape
    wide = n <= d
    with pinned():
        gram = _products(dataset, wide)[0] / n
        eigenvalues, vectors = _gram_spectrum(gram)
        other = (X.T if wide else X) @ vectors
        other /= np.sqrt(n * eigenvalues)
    if eigenvalues.size == 0:
        raise ZeroDesignError("zero design matrix")
    U, V = (other, vectors) if wide else (vectors, other)
    signs = _pivot_signs(U)
    U *= signs
    V *= signs
    for array in (eigenvalues, U, V):
        array.flags.writeable = False
    return CanonicalDecomposition(eigenvalues, U, V)


def canonical_ls(dec: CanonicalDecomposition, Y: FloatArray) -> FloatArray:
    """Least-squares coefficients in the canonical basis: V^T Y / sqrt(n)."""
    n = dec.left_vectors.shape[0]
    Y = _array("Y", Y, (n,))
    return dec.left_vectors.T @ Y / np.sqrt(n)


def to_beta(dec: CanonicalDecomposition, theta: FloatArray) -> FloatArray:
    """Minimum-norm lift back to the original coordinates: U Lambda^{-1} theta."""
    theta = _array("theta", theta, (dec.rank,))
    return dec.right_vectors @ (theta / dec.singular_values)


def to_theta(dec: CanonicalDecomposition, beta: FloatArray) -> FloatArray:
    """Canonical coefficients of a given vector: Lambda U^T beta."""
    beta = _array("beta", beta, (dec.right_vectors.shape[0],))
    return dec.singular_values * (dec.right_vectors.T @ beta)
