"""Canonical thresholding regression in an RKHS.

The Gram matrix scaled by 1/n plays the role of the sample covariance:
its eigendecomposition K/n = V Lambda^2 V^T yields the same canonical
basis sqrt(n) V as in the linear case, the shrunken canonical
coefficients determine the in-sample fit, and the minimum-RKHS-norm
interpolant of that fit is a kernel expansion with explicit dual
coefficients alpha = V Lambda^{-2} theta_hat / sqrt(n).

That explicit form needs V only through two products, V^T Y and
V (theta_hat / lambda), so ``fit_kernel_gct`` never forms V: it keeps the
factors of LAPACK's tridiagonal reduction, K = Q T Q^T with
T = Z diag(w) Z^T, Z in K's buffer and Q as packed reflectors, and
applies Q and Z to vectors.  ``canonical._Basis``, the one basis that
designs and CV folds use too, holds these factors, and every read of V
goes through it (its docstring states the read contract);
``_kernel_basis`` builds it with the kernel floor and the zero and PSD
checks.  A model forms V when ``left_vectors`` or ``theta_hat`` is first
read.  ``kernel_canonicalize`` returns V, and forms it as
``numpy.linalg.eigh`` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np
from numpy.typing import NDArray

from .canonical import _Basis
from .errors import (
    NotPositiveSemidefiniteError,
    ZeroDesignError,
    _array,
    _integer,
    _real,
)
from .estimators import GctConfig, _shrink
from .metrics import joint_effective_dimension
from .thresholding import RuleKind

FloatArray = NDArray[np.float64]

# relative eigenvalue floor and PSD slack of every kernel decomposition
KERNEL_RANK_REL_TOL = 1e-10

# rows per block of the elementwise kernel steps and of the symmetrization
_BLOCK = 256

# each kernel kind's KernelSpec fields and their types, in the order that
# ``ctreg --kernel kind:v1,...`` takes them and a model file writes them
KERNEL_PARAMS: Dict[str, Tuple[Tuple[str, type], ...]] = {
    "linear": (),
    "rbf": (("gamma", float),),
    "poly": (("degree", int), ("coef0", float), ("scale", float)),
}


@dataclass(frozen=True)
class KernelSpec:
    """A positive definite kernel: linear, RBF, or polynomial."""

    kind: str  # a key of KERNEL_PARAMS
    gamma: float = 1.0  # rbf
    degree: int = 2  # poly
    coef0: float = 0.0  # poly
    scale: float = 1.0  # poly

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or self.kind not in KERNEL_PARAMS:
            kinds = ", ".join(KERNEL_PARAMS)
            raise ValueError(f"KernelSpec.kind must be one of {kinds}, got {self.kind!r}")
        # degree and the fields of the kind first, then the finiteness of
        # every field: a field is checked whatever the kind
        object.__setattr__(self, "degree", _integer("KernelSpec.degree", self.degree, 1))
        if self.kind == "rbf":
            _real("KernelSpec.gamma", self.gamma, 0, math.inf, "[)")
        if self.kind == "poly":
            _real("KernelSpec.scale", self.scale, 0, math.inf, "()")
        for name in ("gamma", "coef0", "scale"):
            _real(f"KernelSpec.{name}", getattr(self, name), -math.inf, math.inf, "()")


def _cross_gram(spec: KernelSpec, A: FloatArray, B: FloatArray) -> FloatArray:
    """k(a_i, b_j) for every row pair, computed inside the one A B^T buffer.

    The product is one matrix product into that buffer: a product per row
    block would change the last bits where OpenBLAS takes its small-matrix
    kernel for the block and not for the whole.  What follows it is
    elementwise and runs in row blocks, so the peak is the buffer plus
    _BLOCK rows of temporaries.
    """
    if spec.kind == "linear":
        return A @ B.T
    if spec.kind == "rbf":
        # |a|^2 + |b|^2 - 2 a.b; (-2A) @ B^T stays a gemm when B is A, where
        # A @ A.T would go to syrk and change the bits
        out = (-2.0 * A) @ B.T
        sq_a, sq_b = np.sum(A**2, axis=1), np.sum(B**2, axis=1)
        for i in range(0, out.shape[0], _BLOCK):
            block = out[i : i + _BLOCK]
            block += np.add.outer(sq_a[i : i + _BLOCK], sq_b)
            np.maximum(block, 0.0, out=block)
            block *= -spec.gamma
            np.exp(block, out=block)
        return out
    out = A @ B.T
    out *= spec.scale
    out += spec.coef0
    out **= spec.degree
    return out


def _symmetrize(K: FloatArray) -> None:
    """K <- (K + K^T) / 2 in place, one pair of _BLOCK x _BLOCK blocks at a
    time: each upper block is averaged with its mirror, then written over
    the mirror.  The two entries of a pair are one sum, so K ends exactly
    symmetric, with the bits of (K + K.T) / 2."""
    n = K.shape[0]
    for i in range(0, n, _BLOCK):
        rows = slice(i, i + _BLOCK)
        for j in range(i, n, _BLOCK):
            cols = slice(j, j + _BLOCK)
            upper = K[rows, cols]
            upper += K[cols, rows].T
            upper *= 0.5
            if j > i:
                K[cols, rows] = upper.T


def gram(points: FloatArray, spec: KernelSpec) -> FloatArray:
    """Kernel matrix K_ij = k(x_i, x_j), exactly symmetric.

    It is built and symmetrized in its one n^2 buffer (see ``_cross_gram``
    and ``_symmetrize``); the peak beyond it is _BLOCK rows of temporaries.
    """
    points = _array("points", points, ("n", "p"))
    K = _cross_gram(spec, points, points)
    # max and min carry any NaN or infinity, with no n^2 temporary
    if not (np.isfinite(K.max()) and np.isfinite(K.min())):
        raise ValueError("non-finite kernel matrix entries")
    _symmetrize(K)
    return K


def _symmetric_copy(K: FloatArray) -> FloatArray:
    """An F-order float64 copy of a caller's kernel matrix, checked finite,
    square and symmetric within the tolerance."""
    K = np.array(_array("K", K, ("n", "n")), order="F")
    # exact symmetry (what ``gram`` returns) implies the tolerance check
    if not np.array_equal(K, K.T) and not np.allclose(
        K, K.T, atol=1e-10 * max(1.0, float(np.abs(K).max()))
    ):
        raise ValueError("K must be symmetric to within 1e-10 * max(1, max |K_ij|)")
    return K


def _kernel_basis(K: FloatArray) -> _Basis:
    """The ``_Basis`` of a kernel matrix, which it factors in its own
    buffer, at KERNEL_RANK_REL_TOL.  Its eigenvalues are those of K, not
    K / n.  A zero K, or one with an eigenvalue below -KERNEL_RANK_REL_TOL
    times the largest, raises."""
    if not np.any(K):
        raise ZeroDesignError("zero kernel matrix")
    basis = _Basis(K, KERNEL_RANK_REL_TOL)
    if basis.order.size == 0 or basis.smallest < -KERNEL_RANK_REL_TOL * basis.eigenvalues[0]:
        raise NotPositiveSemidefiniteError("kernel matrix not positive semidefinite")
    return basis


def kernel_canonicalize(K: FloatArray) -> Tuple[FloatArray, FloatArray]:
    """Eigendecomposition of K/n with the small-spectrum floor applied.

    Returns (eigenvalues, left_vectors) with eigenvalues non-increasing,
    from the spectral core that ``canonicalize`` uses.  Eigenvalues within
    KERNEL_RANK_REL_TOL (1e-10) of zero, relative to the top one, are
    dropped; one below -KERNEL_RANK_REL_TOL times the top one raises an
    error.  The floor is fixed.  Each left vector's largest-magnitude entry
    is positive.  A non-finite entry of K is a ValueError that names its
    index.

    The decomposition runs on an F-order copy of K (``_kernel_basis``),
    and the retained eigenvalues are then divided by n; the floor and the
    PSD test are ratios, so neither depends on the scale.  K is never
    written (a read-only K is fine), and the copy, read in its own memory
    order, gives the bits of ``numpy.linalg.eigh(K)`` even for a K that is
    only symmetric within the tolerance.  While the decomposition runs, the live
    memory is K plus 2.5 n^2 floats: the copy, in which Z is written and
    then becomes the vectors, the packed reflectors, and a LAPACK workspace
    of about n^2 (``dstedc``'s, or the unpacked reflectors while the
    vectors are formed).  The signs, found with no n^2 temporary, are
    applied in place to the sorted vectors.

    It factors K as ``fit_kernel_gct`` does, so its eigenvalues are bit for
    bit the fit's, and its vectors are the fit's ``left_vectors``.

    This and the kernel fit are the decompositions in ctreg left on
    OpenBLAS's own threads, so their last bits depend on the BLAS thread
    count: at 2000 x 2000 they pay off (the decomposition takes 0.9-1.0 s
    on 2 threads, against 1.4-1.6 s pinned to one), and no CV fold map
    follows a kernel fit.
    """
    K = _symmetric_copy(K)
    basis = _kernel_basis(K)
    return basis.eigenvalues / K.shape[0], basis.formed()[0]


@dataclass(frozen=True, eq=False)
class KernelPredictor:
    """What prediction needs: f(x) = sum_i alpha_i k(x_i, x), plus the
    response mean when the fit centered the response (else None).

    It checks its fields as every public type does (see ``ctreg.errors``):
    ``kernel`` must be a ``KernelSpec``, ``training_points`` is read as an
    (n, p) float array and ``dual_coeffs`` as an (n,) one, both finite, and
    a ``response_mean`` other than None must be a finite number.  So a
    predictor built from a model file, or by hand, fails here with the
    field's name, not in the first prediction.
    """

    training_points: FloatArray
    dual_coeffs: FloatArray
    kernel: KernelSpec
    response_mean: Optional[float]

    def __post_init__(self) -> None:
        if not isinstance(self.kernel, KernelSpec):
            kernel = f"{self.kernel!r:.80}"
            raise ValueError(f"KernelPredictor.kernel must be a KernelSpec, got {kernel}")
        points = _array("KernelPredictor.training_points", self.training_points, ("n", "p"))
        n = points.shape[0]
        coeffs = _array("KernelPredictor.dual_coeffs", self.dual_coeffs, (n,))
        object.__setattr__(self, "training_points", points)
        object.__setattr__(self, "dual_coeffs", coeffs)
        if self.response_mean is not None:
            _real("KernelPredictor.response_mean", self.response_mean, -math.inf, math.inf, "()")


@dataclass(frozen=True, eq=False)
class KernelModel(KernelPredictor):
    """A fitted RKHS model: the predictor plus the retained spectrum.

    It reads V through its ``_Basis`` (see the read contract there):
    ``left_vectors`` and ``theta_hat`` form V on first read, which costs
    the back-transformation the fit skipped (0.33 s at 2000 x 2000 on
    2 cores), while ``in_sample_fit`` and ``kernel_in_sample_error`` read
    an unread model on its factors at O(n^2).  Until V is formed the model
    holds 1.5 n^2 floats of factors.  The private fields are not part of
    the repr.  A model, like every result object, compares and hashes by
    identity: its fields are arrays.
    """

    eigenvalues: FloatArray
    config: GctConfig
    # theta_hat in the unsigned basis Q Z[:, order], and that basis
    _theta: FloatArray = field(repr=False)
    _basis: _Basis = field(repr=False)

    @property
    def rank(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def left_vectors(self) -> FloatArray:
        return self._basis.formed()[0]

    @property
    def theta_hat(self) -> FloatArray:
        return self._basis.formed()[1] * self._theta


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
    A non-finite response entry is a ValueError that names its index.

    The spectrum comes from K itself, whose eigenvalues are then divided by
    n, with the floor and checks of ``kernel_canonicalize``.  K, which
    ``gram`` builds exactly symmetric in one n^2 array, is factored in its
    own buffer by ``_Basis``, and V^T Y and V c are read as its read
    contract says: on the factors, four products of O(n^2) each where
    forming V costs 2 n^3 flops.  Soft and hard thresholding are odd maps,
    so the column signs of V cancel out of alpha and a soft or hard fit
    never forms V; a custom rule's map need not be odd, so its fit forms V
    to shrink in V's signs, paying what reading ``left_vectors`` costs,
    and its alpha is then read from the formed vectors.

    Cost: the reduction and the tridiagonal eigensolver, 0.53-0.60 s at
    2000 x 2000 on 2 cores, where ``eigh`` took 0.82-0.93 s.  Memory: the
    peak is 2.5 n^2 floats: K, in which Z is written, the packed reflectors
    (n^2 / 2), and the ``dstedc`` workspace of about n^2, or the unpacked
    reflectors while Q is applied; ``eigh`` needs 5 n^2.  The model holds
    Z and the packed reflectors, 1.5 n^2 floats, until its vectors are
    read, then n * r; a prediction at m points beside it adds m * n.
    Accuracy: the eigenvalues and ``left_vectors`` are bit for bit those
    of ``kernel_canonicalize(K)``; alpha and theta_hat agree with the ones
    built from the formed vectors to within roundoff, about
    eps * lambda_max / lambda_min relative (see ``canonicalize``).
    """
    points = _array("points", points, ("n", "p"))
    n = points.shape[0]
    Y = _array("Y", Y, (n,))
    response_mean = None
    if center_response:
        response_mean = float(Y.mean())
        Y = Y - response_mean

    basis = _kernel_basis(gram(points, spec))
    eig = basis.eigenvalues / n
    root_n = math.sqrt(n)
    # theta and alpha in the unsigned basis; a custom map, which need not
    # be odd, is applied in V's own signs
    theta_ls = basis.project(Y) / root_n
    signs = basis.formed()[1] if config.rule.kind is RuleKind.CUSTOM else 1.0
    theta_hat = signs * _shrink(eig, signs * theta_ls, config.rule, config.tau, config.phi)
    alpha = basis.expand(theta_hat / eig) / root_n
    return KernelModel(
        training_points=points,
        dual_coeffs=alpha,
        eigenvalues=eig,
        config=config,
        kernel=spec,
        response_mean=response_mean,
        _theta=theta_hat,
        _basis=basis,
    )


def predict_kernel_batch(model: KernelPredictor, X: FloatArray) -> FloatArray:
    """Predict at the rows of X via the dual form sum_i alpha_i k(x_i, x).

    The rows are not scanned for non-finite entries: a row with a NaN entry
    predicts NaN, and a row with an infinite entry gets a prediction with no
    meaning, in most cases NaN, and numpy may emit a RuntimeWarning
    ("invalid value encountered").  Every other row is predicted as if that
    row were finite.
    """
    X = _array("X", X, ("m", model.training_points.shape[1]), scan=False)
    values = _cross_gram(model.kernel, X, model.training_points) @ model.dual_coeffs
    if model.response_mean is not None:
        values = values + model.response_mean
    return values


def in_sample_fit(model: KernelModel) -> FloatArray:
    """Fitted values at the training points, sqrt(n) V theta_hat.

    They are read through the model's ``_Basis`` (see its read contract):
    on a model whose vectors were never read, one O(n^2) product on the
    factors that forms nothing; after the first read, from the formed
    vectors.  The two agree to within 32 n eps times the norm of the fit.
    """
    values = math.sqrt(model.training_points.shape[0]) * model._basis.expand(model._theta)
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
    the part of f outside the retained spectral span.  A non-finite entry
    of f is a ValueError that names its index.  V is read through the
    model's ``_Basis`` (see its read contract), three O(n^2) products on
    an unread model's factors; each part agrees with the one read from the
    formed vectors to within 32 n eps (|f| + |fit|)^2 / n, with f and the
    fit centered when the model is.
    """
    n = model.training_points.shape[0]
    f = _array("f_true_values", f_true_values, (n,))
    if model.response_mean is not None:
        f = f - model.response_mean
    # theta_hat and the true coefficients in the unsigned basis, whose
    # signs cancel from every part
    root_n = math.sqrt(n)
    total = float(np.sum((root_n * model._basis.expand(model._theta) - f) ** 2)) / n
    theta_true = model._basis.project(f) / root_n
    canonical = float(np.sum((model._theta - theta_true) ** 2))
    outside = float(np.sum((f - root_n * model._basis.expand(theta_true)) ** 2)) / n
    return InSampleError(total=total, canonical=canonical, outside_span=outside)


def kernel_effective_dimension(K: FloatArray, f_values: FloatArray, q: float) -> float:
    """Joint effective dimension || V^T f / ||f||_2 ||_q^q of a kernel problem.

    V^T f is read through the ``_Basis`` of an F-order copy of K, on its
    factors: no V is formed.  The q-norm does not depend on the signs of
    V's columns.  K is checked as ``kernel_canonicalize`` checks it, and a
    non-finite entry of f is a ValueError that names its index.
    """
    _real("q", q, 0, 2, "[]")
    K = _symmetric_copy(K)
    f = _array("f_values", f_values, (K.shape[0],))
    norm = float(np.linalg.norm(f))
    if norm <= 0:
        raise ValueError(f"f_values must be nonzero, got {f.tolist()!r:.80}")
    return joint_effective_dimension(_kernel_basis(K).project(f) / norm, 1.0, q)
