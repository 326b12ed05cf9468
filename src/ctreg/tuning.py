"""Exact solution-path K-fold cross-validation for the threshold level.

As tau sweeps [0, inf) the thresholded support only changes at the finite
set of weighted coefficient magnitudes, so the CV objective is piecewise
quadratic in tau for the soft rule (minimized in closed form per segment)
and piecewise constant for the hard rule (one evaluation per segment).
The tuners take these two rules only, the maps this path is derived for;
a custom rule is for ``fit_gct`` at a given tau.

Every tuner works on one fold-spectra object: each training block is
decomposed once, and the phi-independent pieces (canonical LS
coefficients, eigenvalues, validation scores, validation responses) are
kept.  A training block with no more rows than columns is an ``eigh`` of
its block of the full Gram matrix X X^T, formed once per Dataset, and
its validation scores come from the cross block without touching the
columns; a taller block is an ``eigh`` of X^T X, also formed once per
Dataset, less the validation block's X_v^T X_v (formed directly when the
validation block carries more of ||X||_F^2 than the training block).  The L
decompositions run side by side on up to min(L, CPUs) threads, the caller
and helpers that are started for the map and joined before it returns (see
``_blas.fold_map``), with the OpenBLAS thread count pinned to 1
process-wide for that time, so BLAS calls in other threads run on one
thread too; the fold spectra therefore do not depend on the BLAS thread
count.  Along each fold's coordinates sorted by weighted magnitude, the
validation residual u_k and the soft-rule slope v_k after k active
coordinates are cumulative sums of score columns, so every PCR prefix and
the fold means A, B, C of every segment's quadratic A tau^2 + B tau + C
are gathers from per-fold prefix arrays.  The hard rule keeps |z| >= tau,
so its error at a breakpoint is the constant term C of the segment one
breakpoint back: both rules read one set of coefficients per phi, kept on
the fold spectra for the last phi.  A split is fixed
by (L, seed): the folds are blocks of a seeded permutation of the rows.
The public tuners keep the spectra of the last split in the Dataset's
memo, keyed on (L, seed), so tuning several rules or methods on one split
decomposes its folds once.
A brute-force grid oracle and a single-tau evaluator with identical fold
construction use neither that engine nor the fold-spectra memo and are
kept for testing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

from ._blas import fold_map, pinned
from .canonical import (
    CanonicalDecomposition,
    RANK_REL_TOL,
    Dataset,
    _Basis,
    _memoized,
    _products,
)
from .errors import ZeroDesignError, _array, _grid, _integer, _real
from .estimators import _shrink
from .thresholding import RuleKind, SOFT_RULE, ThresholdRule, _hard, _soft

FloatArray = NDArray[np.float64]

# Path errors within TIE_RTOL times the zero-estimator CV error C0 of the
# smallest one count as tied, and the largest tied tau is chosen.  The path
# engine's roundoff on well-conditioned folds is near 1e-15 C0 (measured at
# n=1000, d=200 and n=200, d=400); near a smooth minimum, distinct segment
# minima lie within 1e-12 C0 of each other often enough that a looser
# tolerance would move tau_cv off the true minimizer.
TIE_RTOL = 1e-14


@dataclass(frozen=True, eq=False)
class CvResult:
    tau_cv: float
    cv_error_at_tau: float
    fold_breakpoints: List[FloatArray]
    candidate_set: FloatArray
    fold_assignment: NDArray[np.int64]
    # soft rule: one row (lo, hi, tau*, error*) per tau interval, the
    # minimizer of the CV objective on [lo, hi]; shape (0, 4) for hard
    path_segments: FloatArray
    # per-fold spectrum diagnostics: retained rank and smallest over largest
    # retained eigenvalue, on which the fold's accuracy depends (see
    # ``canonicalize``)
    fold_ranks: NDArray[np.int64]
    fold_eigenvalue_ratios: FloatArray


def _magnitudes(eigenvalues: FloatArray, theta: FloatArray, phi: float) -> FloatArray:
    """Weighted magnitudes lam_j^(phi/2)|theta_j|: coordinate j leaves the
    support when tau reaches its magnitude."""
    return eigenvalues ** (phi / 2.0) * np.abs(theta)


def _distinct(values: FloatArray) -> FloatArray:
    """The sorted distinct values: ``np.unique``'s sort and adjacent-inequality
    mask, without its ``numpy.ma`` check, which imports ``numpy.ma``."""
    ordered = np.sort(values)
    return ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]


def _breakpoints(magnitudes: FloatArray) -> FloatArray:
    return _distinct(np.concatenate(([0.0], magnitudes)))


def _check_path_rule(rule: ThresholdRule) -> None:
    """The exact tau path is derived for the soft and hard maps only."""
    if rule.kind not in (RuleKind.SOFT, RuleKind.HARD):
        raise ValueError(f"CV takes the soft or hard rule, got {rule.kind.value}")


def breakpoints(
    dec: CanonicalDecomposition, theta_ls: FloatArray, phi: float
) -> FloatArray:
    """Sorted distinct tau values at which the thresholded support changes.

    Returns {0} united with the weighted magnitudes lam_j^(phi/2)|theta_j|;
    at and above the maximum the soft-rule estimator is identically zero.
    """
    _real("phi", phi, 0, math.inf, "[)")
    theta_ls = _array("theta_ls", theta_ls, (dec.rank,))
    return _breakpoints(_magnitudes(dec.eigenvalues, theta_ls, phi))


def fold_assignment(n: int, L: int, seed: int) -> NDArray[np.int64]:
    """Partition [n] into L blocks with sizes in {floor(n/L), floor(n/L)+1}.

    The blocks are consecutive runs of a permutation of [n] drawn from
    ``np.random.default_rng(seed)``, so (n, L, seed) fixes the split.  n, L
    and the seed are integers (numpy integers too), with 2 <= L <= n and the
    seed nonnegative; anything else raises ``ValueError`` naming it.
    """
    n, L, seed = _integer("n", n, 1), _integer("L", L, 2), _integer("seed", seed, 0)
    if L > n:
        raise ValueError(f"L must be at most n = {n}, got {L}")
    base, extra = divmod(n, L)
    sizes = [base + 1] * extra + [base] * (L - extra)
    order = np.random.default_rng(seed).permutation(n)
    assignment = np.empty(n, dtype=np.int64)
    start = 0
    for fold_id, size in enumerate(sizes):
        assignment[order[start : start + size]] = fold_id
        start += size
    return assignment


@dataclass(frozen=True)
class _Fold:
    """One training block's spectrum, seen from its validation block."""

    theta_ls: FloatArray
    eigenvalues: FloatArray
    scores: FloatArray  # X_val @ U @ Lambda^{-1/2}, shape m x r
    y_val: FloatArray


@dataclass(frozen=True)
class _FoldSpectra:
    """Everything CV needs from one fold split; independent of phi and of the method.

    ``_memo`` holds the path coefficients of the last phi a path used (see
    ``_path_coefficients``), so the soft and hard paths at one phi sweep once.
    """

    assignment: NDArray[np.int64]
    folds: Tuple[_Fold, ...]
    _memo: Dict[str, object] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )


def _fold(dataset: Dataset, assignment: NDArray[np.int64], fold_id: int) -> _Fold:
    """One fold's spectrum: an ``eigh`` of its block of X X^T when the
    training block has no more rows than columns, else of its X_t^T X_t.
    That is X^T X - X_v^T X_v, downdated by the validation block, unless
    the validation block carries more of ||X||_F^2 than the training block,
    when the downdate would cancel and X_t^T X_t is formed directly."""
    X, Y = dataset.design, dataset.response
    val = assignment == fold_id
    train = ~val
    n_t = int(np.count_nonzero(train))
    if n_t <= dataset.d:
        root_n = math.sqrt(n_t)
        (outer,) = _products(dataset, True)
        basis = _Basis(outer[np.ix_(train, train)] / n_t, RANK_REL_TOL)
        eig, V = basis.eigenvalues, basis.formed()[0]
        theta = V.T @ Y[train] / root_n
        scores = outer[np.ix_(val, train)] @ V / (root_n * eig)
    else:
        inner, cross, row_norms = _products(dataset, False)
        X_v = X[val]
        if row_norms[val].sum() <= row_norms[train].sum():
            gram = inner - X_v.T @ X_v
            b = cross - X_v.T @ Y[val]
        else:
            X_t = X[train]
            gram, b = X_t.T @ X_t, X_t.T @ Y[train]
        basis = _Basis(gram / n_t, RANK_REL_TOL)
        eig, U = basis.eigenvalues, basis.formed()[0]
        s = np.sqrt(eig)
        theta = U.T @ b / (n_t * s)
        scores = X_v @ U / s
    if eig.size == 0:
        raise ZeroDesignError(
            f"fold {fold_id}: zero design matrix in its training block"
        )
    return _Fold(theta_ls=theta, eigenvalues=eig, scores=scores, y_val=Y[val])


def _fold_spectra(dataset: Dataset, L: int, seed: int) -> _FoldSpectra:
    """The spectra of the L training blocks of fold_assignment(n, L, seed),
    decomposed side by side by ``fold_map``."""
    assignment = fold_assignment(dataset.n, L, seed)
    train_sizes = dataset.n - np.bincount(assignment)
    with pinned():
        # the products the folds read are formed here, before the helpers start
        for wide in set((train_sizes <= dataset.d).tolist()):
            _products(dataset, wide)
        folds = fold_map(lambda fold_id: _fold(dataset, assignment, fold_id), L)
    return _FoldSpectra(assignment=assignment, folds=tuple(folds))


def _memo_fold_spectra(dataset: Dataset, L: int, seed: int) -> _FoldSpectra:
    """``_fold_spectra`` through the dataset's one-entry memo, keyed on (L, seed).

    Only the public tuners use this entry; ``cv_error_at`` and
    ``grid_cv_oracle`` build fresh spectra, so the oracles stay independent
    of the path engine (all of them read the products of X, as every
    decomposition does).  L and the seed are checked before the memo is read.
    """
    key = (_integer("L", L, 2), _integer("seed", seed, 0))
    return _memoized(
        dataset._memo, "fold_spectra", key, lambda: _fold_spectra(dataset, L, seed)
    )


def _cv_error(
    spectra: _FoldSpectra, rule: ThresholdRule, tau: float, phi: float
) -> float:
    total = 0.0
    for fold in spectra.folds:
        theta_hat = _shrink(fold.eigenvalues, fold.theta_ls, rule, tau, phi)
        residual = fold.y_val - fold.scores @ theta_hat
        total += float(residual @ residual) / fold.y_val.shape[0]
    return total / len(spectra.folds)


def cv_error_at(
    dataset: Dataset,
    L: int,
    phi: float,
    rule: ThresholdRule,
    seed: int,
    tau: float,
) -> float:
    """Evaluate the K-fold CV objective at a single threshold level.

    An infinite tau thresholds every coordinate."""
    _real("phi", phi, 0, math.inf, "[)")
    _real("tau", tau, 0, math.inf, "[]")
    return _cv_error(_fold_spectra(dataset, L, seed), rule, tau, phi)


def _prefix_residuals(fold: _Fold, order: NDArray[np.int64]) -> FloatArray:
    """Validation residuals with the first k coordinates of ``order`` fitted.

    Column k of the m x (len(order) + 1) result is y_val minus the
    cumulative sum of score columns times their LS coefficients.
    """
    terms = fold.scores[:, order] * fold.theta_ls[order]
    residuals = np.empty((fold.y_val.shape[0], order.shape[0] + 1))
    residuals[:, 0] = fold.y_val
    np.cumsum(terms, axis=1, out=residuals[:, 1:])
    residuals[:, 1:] = fold.y_val[:, None] - residuals[:, 1:]
    return residuals


def _mean_sq(columns: FloatArray) -> FloatArray:
    return np.sum(columns * columns, axis=0) / columns.shape[0]


def _last_tied_minimum(errors: FloatArray, tol: float) -> int:
    """Index of the last error within ``tol`` of the smallest one."""
    return int(np.flatnonzero(errors <= np.min(errors) + tol)[-1])


def _prefix_sums(
    fold: _Fold, mags: FloatArray, phi: float
) -> Tuple[FloatArray, FloatArray, FloatArray, FloatArray]:
    """One fold's prefix sweep at phi: its weighted magnitudes in ascending
    order, and the column sums over validation rows of u*u, u*v and v*v,
    where column k of u (v) is the residual (soft-rule slope) with the k
    largest magnitudes active, k = 0..r."""
    order = np.argsort(-mags, kind="stable")
    u = _prefix_residuals(fold, order)
    slopes = fold.scores[:, order] * (
        np.sign(fold.theta_ls[order]) / fold.eigenvalues[order] ** (phi / 2.0)
    )
    v = np.zeros_like(u)
    np.cumsum(slopes, axis=1, out=v[:, 1:])
    return (
        np.sort(mags), np.sum(u * u, axis=0), np.sum(u * v, axis=0), np.sum(v * v, axis=0)
    )


def _path_coefficients(
    spectra: _FoldSpectra, magnitudes: List[FloatArray], merged: FloatArray, phi: float
) -> FloatArray:
    """Rows A, B, C: the fold means of the CV objective A tau^2 + B tau + C
    just above each point of [-inf] ++ merged, through the spectra's
    one-entry memo keyed on phi (merged is a function of phi).

    Above point p, fold f has its k_f coordinates with magnitude above p
    active, with residual u_{k_f} + tau v_{k_f}.  No magnitude lies strictly
    between two merged points, so the coordinates with magnitude >= merged[i]
    are those above the point before it: the hard rule's error at merged[i]
    is C[i], and C[-1] (nothing active) is its error above the maximum.
    """

    def make() -> FloatArray:
        points = np.concatenate(([-math.inf], merged))
        coefficients = np.zeros((3, points.shape[0]))
        for fold, mags in zip(spectra.folds, magnitudes):
            ordered, uu, uv, vv = _prefix_sums(fold, mags, phi)
            active = ordered.shape[0] - np.searchsorted(ordered, points, side="right")
            terms = np.stack((vv[active], 2.0 * uv[active], uu[active]))
            coefficients += terms / fold.y_val.shape[0]
        return coefficients / len(spectra.folds)

    return _memoized(spectra._memo, "path_coefficients", phi, make)


def _soft_path(
    merged: FloatArray, A: FloatArray, B: FloatArray, C: FloatArray
) -> Tuple[FloatArray, FloatArray]:
    """Closed-form minimum of A tau^2 + B tau + C on every merged segment
    [lo, hi], one coefficient triple per segment: (tau*, error*) arrays."""
    lo, hi = merged[:-1], merged[1:]

    def value(t: FloatArray) -> FloatArray:
        return A * t * t + B * t + C

    # on [lo, hi]: hi unless the vertex, then lo, is strictly lower
    tau, err = hi.copy(), value(hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = -B / (2.0 * A)
    at_vertex = value(vertex)
    inside = (A > 0) & (lo < vertex) & (vertex < hi) & (at_vertex < err)
    tau, err = np.where(inside, vertex, tau), np.where(inside, at_vertex, err)
    at_lo = value(lo)
    lower = at_lo < err
    tau, err = np.where(lower, lo, tau), np.where(lower, at_lo, err)
    return tau, err


def _path_cv(spectra: _FoldSpectra, phi: float, rule: ThresholdRule) -> CvResult:
    """The exact tau path of one phi on shared fold spectra (see kfold_cv)."""
    magnitudes = [
        _magnitudes(fold.eigenvalues, fold.theta_ls, phi) for fold in spectra.folds
    ]
    fold_bps = [_breakpoints(mags) for mags in magnitudes]
    merged = _distinct(np.concatenate(fold_bps))
    zero_error = sum(
        float(fold.y_val @ fold.y_val) / fold.y_val.shape[0] for fold in spectra.folds
    ) / len(spectra.folds)
    tol = TIE_RTOL * zero_error

    segments = np.empty((0, 4))
    candidates = merged
    if rule.kind is RuleKind.SOFT and merged.shape[0] == 1:
        best_tau = float(merged[0])  # every theta is zero
        error = _cv_error(spectra, rule, best_tau, phi)
        segments = np.array([[best_tau, best_tau, best_tau, error]])
    elif rule.kind is RuleKind.SOFT:
        coefficients = _path_coefficients(spectra, magnitudes, merged, phi)
        taus, errors = _soft_path(merged, *coefficients[:, 1:-1])
        segments = np.column_stack((merged[:-1], merged[1:], taus, errors))
        best_tau = float(taus[_last_tied_minimum(errors, tol)])
    else:
        C = _path_coefficients(spectra, magnitudes, merged, phi)[2]
        if merged[-1] > 0:
            candidates = np.append(merged, math.inf)
        errors = C[: candidates.shape[0]]
        best_tau = float(candidates[_last_tied_minimum(errors, tol)])

    return CvResult(
        tau_cv=best_tau,
        cv_error_at_tau=_cv_error(spectra, rule, best_tau, phi),
        fold_breakpoints=fold_bps,
        candidate_set=np.asarray(candidates, dtype=np.float64),
        fold_assignment=spectra.assignment.copy(),
        path_segments=segments,
        fold_ranks=np.array([fold.eigenvalues.shape[0] for fold in spectra.folds]),
        fold_eigenvalue_ratios=np.array(
            [fold.eigenvalues[-1] / fold.eigenvalues[0] for fold in spectra.folds]
        ),
    )


def kfold_cv(
    dataset: Dataset,
    L: int,
    phi: float = 0.0,
    rule: ThresholdRule = SOFT_RULE,
    seed: int = 0,
) -> CvResult:
    """Exact K-fold CV over all tau >= 0.

    Soft rule: closed-form minimization of the piecewise-quadratic objective
    A tau^2 + B tau + C on every segment between merged breakpoints.  Hard
    rule: one error per merged breakpoint plus a sentinel above the maximum
    representing the zero estimator.  The boundary component is still kept
    at tau equal to a breakpoint, so the hard fit there keeps, unshrunk, the
    coordinates active on the segment one breakpoint back, and its error is
    that segment's quadratic at tau = 0, the constant term C.  Both rules
    read the same coefficients, one set per phi.  The path is derived for
    these two maps only, so a custom rule raises ``ValueError``, as it does
    in ``joint_cv`` and ``grid_cv_oracle``; ``cv_error_at`` evaluates any
    rule at one tau.

    After the fold decompositions the soft and hard paths cost O(L m r) for
    L folds of m validation rows and rank r, plus an O(L) gather per
    segment or candidate: the errors are read off cumulative sums of score
    columns.

    Accuracy and ties: summation order differs from a direct evaluation, so
    a path error agrees with ``cv_error_at`` at the same tau to within
    4 r eps S, where S is the fold mean of (|y_i| + sum_j |s_ij theta_j|)^2
    over validation rows, the squared size of the summed terms (the tests
    check this bound).  On well-conditioned folds S is a small multiple of
    the zero estimator's CV error C0, and the difference is near 1e-15 C0.
    Path errors within ``TIE_RTOL * C0`` of the smallest one are ties, so
    an exact tie that roundoff splits is still found, and ties go to the
    largest tau.  ``cv_error_at_tau`` is the direct evaluation at
    ``tau_cv`` and equals ``cv_error_at(..., tau_cv)``.

    The folds are ``fold_assignment(n, L, seed)``.  The fold spectra of the
    last (L, seed) are kept on the dataset and shared by ``kfold_cv``,
    ``joint_cv``, ``kfold_cv_pcr`` and ``kfold_cv_ridge``: a second call on
    the same split, with any rule, phi or method, skips the L fold
    decompositions.  A call with another split replaces the entry.
    ``fold_assignment`` is the caller's copy.  A negative or non-finite phi
    raises ``ValueError``, as in ``GctConfig``, before a fold is decomposed.

    Tall folds: a training block with more rows than columns is decomposed
    from X^T X - X_v^T X_v, with X^T X and X^T y formed once per Dataset
    (and kept in its memo, see ``canonical._products``), and no copy of the
    training rows.  That Gram matrix has an error of about
    eps ||X^T X||, where a direct X_t^T X_t has eps ||X_t^T X_t||; the
    downdate is used only when ||X_v||_F^2 <= ||X_t||_F^2, so its error is
    at most about twice the direct product's (and a validation block that
    carries most of the design, such as one outlier row, is multiplied
    out directly).  Against the direct product, eigenvalues move by about
    1e-15 lambda_max and tau_cv by about 1e-13 relative.

    Threads: the L fold decompositions run on up to min(L, CPUs) threads,
    the calling one and helpers that are started for the decomposition and
    joined before it returns or raises.  While they run, the OpenBLAS thread
    count is pinned to 1 process-wide, which also holds BLAS calls made by
    other threads to one thread, and the count is restored afterwards.  Every
    fold is computed on one BLAS thread, so the fold spectra, and this
    result, do not depend on the BLAS thread count.  A multi-threaded BLAS
    call that the caller makes just before CV leaves an OpenBLAS worker
    spinning for about 0.12 s on the core a helper needs; called on the
    process's only Python thread, the pin stops OpenBLAS's workers first,
    and the caller's next multi-threaded call starts them again.  With
    another Python thread alive, or an OpenBLAS without the pool symbols
    (see ``_blas.pinned``), the worker keeps spinning: on 2 cores, a
    200 x 4000, L = 10 call that missed the memo took a median 38 ms right
    after three 200 x 4000 by 4000 x 50 products with the pool left
    running, against 26 ms with it stopped and 28 ms after a 0.2 s pause.
    """
    _real("phi", phi, 0, math.inf, "[)")
    _check_path_rule(rule)
    return _path_cv(_memo_fold_spectra(dataset, L, seed), phi, rule)


def _fold_errors_on_grid(
    fold: _Fold, rule: ThresholdRule, taus: FloatArray, phi: float
) -> FloatArray:
    """Validation error of one fold at every grid point at once."""
    weights = fold.eigenvalues ** (phi / 2.0)
    weighted = weights * fold.theta_ls
    threshold = _soft if rule.kind is RuleKind.SOFT else _hard
    shrunk = threshold(weighted[:, None], taus[None, :])
    theta_hat = shrunk / weights[:, None]  # r x m
    residual = fold.y_val[:, None] - fold.scores @ theta_hat
    return np.sum(residual**2, axis=0) / fold.y_val.shape[0]


def grid_cv_oracle(
    dataset: Dataset,
    L: int,
    phi: float,
    rule: ThresholdRule,
    grid: FloatArray,
    seed: int,
) -> Tuple[float, float]:
    """Brute-force CV over an explicit tau grid with identical folds.

    A negative or NaN tau raises ``ValueError``, as in ``cv_error_at``; an
    infinite one thresholds every coordinate."""
    _real("phi", phi, 0, math.inf, "[)")
    _check_path_rule(rule)
    grid = _grid("grid", grid, 0, math.inf, "[]")
    folds = _fold_spectra(dataset, L, seed).folds
    taus = np.sort(grid)
    errors = sum(_fold_errors_on_grid(fold, rule, taus, phi) for fold in folds) / len(
        folds
    )
    # scan ascending with <= so exact ties resolve toward the largest tau
    best_tau, best_err = math.nan, math.inf
    for tau, err in zip(taus, errors):
        if err <= best_err:
            best_tau, best_err = float(tau), float(err)
    return best_tau, best_err


def joint_cv(
    dataset: Dataset,
    L: int,
    phi_grid: Sequence[float],
    rule: ThresholdRule = SOFT_RULE,
    seed: int = 0,
) -> Tuple[float, float, CvResult]:
    """Tune (tau, phi) by running the exact tau path for each phi candidate.

    The folds are decomposed once and shared by every phi.  Returns
    (phi, tau, result) with the smallest CV error; ties go to the smaller
    phi.
    """
    phis = _grid("phi_grid", phi_grid, 0, math.inf, "[)")
    _check_path_rule(rule)
    spectra = _memo_fold_spectra(dataset, L, seed)
    best: Optional[Tuple[float, float, CvResult]] = None
    # ascending with < so exact ties resolve toward the smallest phi
    for phi in sorted(phis.tolist()):
        result = _path_cv(spectra, phi, rule)
        if best is None or result.cv_error_at_tau < best[2].cv_error_at_tau:
            best = (phi, result.tau_cv, result)
    assert best is not None
    return best


def _pcr_cv(spectra: _FoldSpectra) -> Tuple[int, float]:
    folds = spectra.folds
    max_m = min(fold.theta_ls.shape[0] for fold in folds)
    errors = np.zeros(max_m + 1)
    for fold in folds:
        errors += _mean_sq(_prefix_residuals(fold, np.arange(max_m))) / len(folds)
    best_m = int(np.argmin(errors))
    return best_m, float(errors[best_m])


def kfold_cv_pcr(dataset: Dataset, L: int, seed: int = 0) -> Tuple[int, float]:
    """Select the number of leading components by K-fold CV.

    Components beyond the smallest per-fold rank are not considered.  Ties
    go to the smaller model.
    """
    return _pcr_cv(_memo_fold_spectra(dataset, L, seed))


def _ridge_cv(spectra: _FoldSpectra, lambda_grid: FloatArray) -> Tuple[float, float]:
    lambdas = np.sort(lambda_grid)
    errors = np.zeros_like(lambdas)
    for fold in spectra.folds:
        theta_hat = fold.theta_ls[:, None] / (
            1.0 + lambdas[None, :] / fold.eigenvalues[:, None]
        )  # r x |grid|
        residual = fold.y_val[:, None] - fold.scores @ theta_hat
        errors += _mean_sq(residual) / len(spectra.folds)
    best = _last_tied_minimum(errors, 0.0)
    return float(lambdas[best]), float(errors[best])


def kfold_cv_ridge(
    dataset: Dataset,
    L: int,
    lambda_grid: FloatArray,
    seed: int = 0,
) -> Tuple[float, float]:
    """Select the ridge penalty by K-fold CV over an explicit grid.

    Ties go to the larger penalty.  A negative or NaN penalty raises
    ``ValueError``, as in ``fit_ridge``.
    """
    lambdas = _grid("lambda_grid", lambda_grid, 0, math.inf, "[]")
    return _ridge_cv(_memo_fold_spectra(dataset, L, seed), lambdas)
