"""Canonical form of a linear regression problem.

The design matrix scaled by n^{-1/2} is factored as
X / sqrt(n) = V diag(sqrt(eigenvalues)) U^T, with U and V orthonormal.
Rewriting Y = X beta + eps in the orthonormal basis sqrt(n) V turns the
problem into a sequence model with coefficients theta = Lambda U^T beta,
which is where all the thresholding estimators in this package operate.

The factors come from one spectral core, ``_Basis``: the retained
eigenvectors of a symmetric Gram matrix, from a symmetric eigendecomposition
(``_blas.eigh_factors``) of the smaller of X X^T / n and X^T X / n.  The
decomposition keeps only that side, the Gram side: V when n <= d, else U.
Every estimator reads the other, far side through one product with X
(``canonical_ls``, ``to_beta``, ``to_theta``), and it is formed only when
``right_vectors`` or ``left_vectors`` asks for it.  CV fold spectra and
kernel matrices go through the same ``_Basis``, with their own rank
floors, and one sign rule serves them all: each Gram-side vector's
largest-magnitude entry is positive.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, Hashable, Optional, Tuple, TypeVar

import numpy as np
from numpy.typing import NDArray

from ._blas import EighFactors, eigh_factors, pinned
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
    decomposition, filled by ``canonicalize`` (m*r + r floats for rank r,
    m = min(n, d): the Gram side and the eigenvalues; the far side adds
    max(n, d)*r once ``right_vectors`` or ``left_vectors`` reads it), and
    the spectra of the last fold split a CV tuner used (see
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
    of the sample covariance X^T X / n; the singular values s of
    X / sqrt(n) are their square roots.  ``design`` is X and
    ``gram_vectors`` the Gram side: the retained eigenvectors of the
    smaller Gram matrix, m x r orthonormal columns with m = min(n, d), V
    when n <= d, else U.  ``right_vectors`` (U, d x r) and ``left_vectors``
    (V, n x r) return the Gram side, or the far side, (X^T V or X U) /
    (sqrt(n) s), which is formed on one BLAS thread when it is first read
    and kept, read-only (two threads that read it at once may each form
    it, with the same bits).  No estimator reads it.  A pickle holds X,
    the Gram side and, once read, the far side.
    """

    eigenvalues: FloatArray
    design: FloatArray
    gram_vectors: FloatArray

    @property
    def rank(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def singular_values(self) -> FloatArray:
        return np.sqrt(self.eigenvalues)

    @property
    def wide(self) -> bool:
        return self.design.shape[0] <= self.design.shape[1]

    @property
    def right_vectors(self) -> FloatArray:
        return self._far_side if self.wide else self.gram_vectors

    @property
    def left_vectors(self) -> FloatArray:
        return self.gram_vectors if self.wide else self._far_side

    @cached_property
    def _far_side(self) -> FloatArray:
        X = self.design
        with pinned():
            far = (X.T if self.wide else X) @ self.gram_vectors
            far /= np.sqrt(X.shape[0] * self.eigenvalues)
        far.flags.writeable = False
        return far


class _Basis:
    """The retained eigenvectors of a symmetric Gram matrix G, read through
    its factors until they are formed.  It is the one code that turns a
    Gram matrix into a basis: X X^T / n or X^T X / n (``canonicalize``), a
    CV fold's block of either (``tuning``) and a kernel matrix K
    (``kernel._kernel_basis``, which adds the zero and PSD checks).

    ``_Basis(G, rank_rel_tol)`` factors G in its own buffer, so G must be a
    temporary that is exactly symmetric or F-order: G = Q Z diag(w) Z^T Q^T
    (``_blas.eigh_factors``), with Z written over G and Q held as packed
    reflectors, 1.5 n^2 floats; while G is factored the peak is G plus
    about 1.5 n^2 floats (the packed reflectors and ``dstedc``'s
    workspace).  ``order`` indexes the eigenvalues greater than
    rank_rel_tol times the largest, the largest first (a stable sort, so
    exactly equal eigenvalues keep index order), ``eigenvalues`` holds them
    and ``smallest`` is the smallest eigenvalue of all.  Nothing is kept
    when the largest eigenvalue is not positive.  The floor is relative, so
    any positive scaling of G keeps the same components.

    The read contract.  ``project(f)`` = U^T f and ``expand(c)`` = U c are
    taken in the unsigned basis U = Q Z[:, order].  Until V is formed they
    run on the factors, as Z^T (Q^T f) and Q (Z c), O(n^2) flops each and
    an n x n copy of the reflectors while Q is applied; so an in-sample
    read of a model that was never read costs O(n^2), not the 2 n^3 of
    forming V.  ``formed()`` forms (V, s) once, V = U diag(s) with each
    column's largest-magnitude entry made positive (the first such entry
    on ties) by the signs s: Q Z in Z's buffer with dsyevd's workspace (so
    V is ``numpy.linalg.eigh``'s, bit for bit, then sorted and signed),
    after which only V, a new n x r array, is kept.  From then on
    ``project`` and ``expand`` read (V, s).  The two routes agree to within
    roundoff: their products differ by less than 32 n eps |f| or
    32 n eps |c| (measured below 0.06 n eps at n <= 700, on both
    eigensolver routes).  One lock guards the factors, so threads that read
    at once form V once and never read Z while it is overwritten.  A
    pickle holds V and its signs.
    """

    def __init__(self, gram: FloatArray, rank_rel_tol: float) -> None:
        factors = eigh_factors(gram)
        eig = factors.eigenvalues
        r = int(np.count_nonzero(eig > rank_rel_tol * eig[-1]))
        self.order = np.argsort(-eig, kind="stable")[:r]
        self.eigenvalues = eig[self.order]
        self.smallest = float(eig[0])
        self._lock = threading.Lock()
        self._factors: Optional[EighFactors] = factors
        self._formed: Optional[Tuple[FloatArray, FloatArray]] = None

    def formed(self) -> Tuple[FloatArray, FloatArray]:
        """(V, s), formed on the first call."""
        with self._lock:
            if self._formed is None:
                vec = self._factors.form()[:, self.order]
                signs = _pivot_signs(vec)
                vec *= signs
                self._formed, self._factors = (vec, signs), None
            return self._formed

    def project(self, f: FloatArray) -> FloatArray:
        """U^T f for a float64 vector f of length n."""
        with self._lock:
            if self._formed is None:
                factors = self._factors
                projection = factors.vectors.T @ factors.apply(np.array(f), transpose=True)
                return projection[self.order]
            vec, signs = self._formed
        return signs * (vec.T @ f)

    def expand(self, c: FloatArray) -> FloatArray:
        """U c for a float64 vector c of length r."""
        with self._lock:
            if self._formed is None:
                factors = self._factors
                # scattered into n entries: Z[:, order] would copy n * r floats
                full = np.zeros(factors.vectors.shape[0])
                full[self.order] = c
                return factors.apply(factors.vectors @ full)
            vec, signs = self._formed
        return vec @ (signs * c)

    def __getstate__(self) -> Dict[str, Any]:
        self.formed()
        return dict(self.__dict__, _lock=None)

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state, _lock=threading.Lock())


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

    Its Gram side is the ``_Basis`` of the smaller Gram matrix: V, of
    X X^T / n, when n <= d, else U, of X^T X / n, with the eigenvalues;
    s holds their square roots.  Components with eigenvalue <=
    RANK_REL_TOL * (largest eigenvalue) are discarded; the floor is fixed,
    so every fit and CV fold uses the same one.  Each Gram-side vector is
    sign-normalized so that its largest-magnitude entry is positive (first
    such entry on ties), the one sign rule that CV folds and kernel
    matrices follow too; the far side, U = X^T V / (sqrt(n) s) or
    V = X U / (sqrt(n) s), takes its signs from it.  So on a wide design a
    component of the far side, and of theta_LS and theta_hat, may have the
    opposite sign to the one an SVD convention on U would give; beta and
    every prediction do not depend on the signs.

    The decomposition keeps the Gram side, and the estimators read the far
    side only through products with X, which is the Dataset's own
    read-only array: when n <= d, theta_LS = V^T Y / sqrt(n),
    ``to_beta`` is X^T (V (theta / lambda)) / sqrt(n) and ``to_theta`` is
    V^T (X beta) / sqrt(n); else theta_LS = U^T (X^T Y) / (n s),
    ``to_beta`` is U (theta / s) and ``to_theta`` is s U^T beta.  Each
    lift costs one product with X and one with the Gram side.  The far side
    is formed only when ``right_vectors`` (n <= d) or ``left_vectors``
    (n > d) is read.

    Accuracy: ``eigh`` of a Gram matrix gives every eigenvalue with an
    absolute error of about eps * lambda_max, so a retained component with
    eigenvalue lambda_j is resolved to about eps * lambda_max / lambda_j
    relative, and the minimum-norm coefficients and fitted values built
    from the decomposition are accurate to about
    eps * lambda_max / lambda_min, with lambda_min the smallest retained
    eigenvalue (an SVD of X would give about eps * sqrt(lambda_max /
    lambda_min)).  At lambda_max / lambda_min = 1e10 that is about 1e-6;
    at the floor of 1e-12 it is about 1e-4.  The lifts through X keep that
    bound: their beta differs from the one built from a formed far side by
    at most 0.23 eps * lambda_max / lambda_min relative (measured at ratios
    1e2 to 1e10 on 40 x 80 to 600 x 200 designs), and both routes are
    checked against ``numpy.linalg.lstsq``, the pseudoinverse and each
    other (n zero columns send a tall design to the wide route).

    The decomposition is computed once per Dataset and kept in its memo:
    later calls return the same object, whose arrays are read-only.  Its
    Gram matrix is the product X X^T or X^T X that the memo keeps for the
    CV folds too (see ``_products``), divided by n.

    Memory: the memo keeps the eigenvalues and the Gram side, m x r floats
    with m = min(n, d), beside the products.  Beyond X and the products,
    the m x m Gram matrix is decomposed in its own buffer, next to about
    1.5 m^2 floats (the packed reflectors and a LAPACK workspace, or the
    unpacked reflectors while the vectors are formed; see ``_Basis``), and
    the retained columns are copied out of the formed vectors.  At
    200 x 4000 and at 4000 x 200 the peak traced by tracemalloc is 1.5 MB,
    of which the memo keeps 0.64 MB: 0.32 MB of Gram side and 0.32 MB of
    products.  Reading the far side adds max(n, d) * r floats, 6.4 MB at
    those shapes.

    Threads: the Gram product, its ``eigh`` and the forming of the Gram
    side run with OpenBLAS pinned to one thread (see ``_blas.pinned``), as
    the CV fold spectra do, and so does the far side when it is formed, so
    the decomposition does not depend on the BLAS thread count; nor does
    any fit built on it, since the lifts' matrix-vector products with X
    give the same bits on 1 and 2 OpenBLAS threads (checked on both
    routes).  Begun on the process's only Python thread, the pin also stops
    the OpenBLAS workers, so none that an earlier multi-threaded call left
    busy-waiting (for about 0.12 s) keeps a core from this decomposition or
    the next CV fold map; the next multi-threaded call starts them again.
    With another Python thread alive, or an OpenBLAS without the pool
    symbols, the pin only sets the count and such a worker keeps spinning.
    A memo hit takes no pin.  Alone, the pinned decomposition is slower
    than an unpinned one, a cost paid once per Dataset; in a loop that
    alternates fits and CV, as ``run_experiment`` does, the pin is a net
    gain.  Not forming the far side took a fresh Dataset's decomposition
    from medians of 16.7 to 5.9 ms at 200 x 4000, 51 to 32 ms at
    2000 x 500 and 5.9 to 3.6 ms at 1000 x 200 (2 cores, numpy 2.4 with its
    OpenBLAS); a refit on a decomposed Dataset pays for reading X instead,
    0.152 to 0.160 ms at 200 x 4000 and 0.059 to 0.066 ms at 1000 x 200.
    """
    return _memoized(dataset._memo, "decomposition", None, lambda: _decompose(dataset))


def _decompose(dataset: Dataset) -> CanonicalDecomposition:
    n, d = dataset.design.shape
    with pinned():
        basis = _Basis(_products(dataset, n <= d)[0] / n, RANK_REL_TOL)
        vectors = basis.formed()[0]
    if basis.eigenvalues.size == 0:
        raise ZeroDesignError("zero design matrix")
    for array in (basis.eigenvalues, vectors):
        array.flags.writeable = False
    return CanonicalDecomposition(basis.eigenvalues, dataset.design, vectors)


def canonical_ls(dec: CanonicalDecomposition, Y: FloatArray) -> FloatArray:
    """Least-squares coefficients in the canonical basis: V^T Y / sqrt(n),
    read as U^T (X^T Y) / (n s) when n > d."""
    n = dec.design.shape[0]
    Y = _array("Y", Y, (n,))
    if dec.wide:
        return dec.gram_vectors.T @ Y / np.sqrt(n)
    return dec.gram_vectors.T @ (dec.design.T @ Y) / (n * dec.singular_values)


def to_beta(dec: CanonicalDecomposition, theta: FloatArray) -> FloatArray:
    """Minimum-norm lift back to the original coordinates: U Lambda^{-1} theta,
    read as X^T (V (theta / lambda)) / sqrt(n) when n <= d."""
    theta = _array("theta", theta, (dec.rank,))
    if dec.wide:
        X, V = dec.design, dec.gram_vectors
        return X.T @ (V @ (theta / dec.eigenvalues)) / np.sqrt(X.shape[0])
    return dec.gram_vectors @ (theta / dec.singular_values)


def to_theta(dec: CanonicalDecomposition, beta: FloatArray) -> FloatArray:
    """Canonical coefficients of a given vector: Lambda U^T beta, read as
    V^T (X beta) / sqrt(n) when n <= d."""
    n, d = dec.design.shape
    beta = _array("beta", beta, (d,))
    if dec.wide:
        return dec.gram_vectors.T @ (dec.design @ beta) / np.sqrt(n)
    return dec.singular_values * (dec.gram_vectors.T @ beta)
