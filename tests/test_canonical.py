"""Tests for the canonical-form decomposition and coordinate maps."""

import contextlib
import os
import pickle
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ctreg import (
    HARD_RULE,
    SOFT_RULE,
    CanonicalDecomposition,
    Dataset,
    GctConfig,
    ZeroDesignError,
    canonical_ls,
    canonicalize,
    cv_error_at,
    fit_gct,
    fit_min_norm_ls,
    fit_nct,
    fit_pcr,
    fit_ridge,
    grid_cv_oracle,
    joint_cv,
    kfold_cv,
    kfold_cv_pcr,
    kfold_cv_ridge,
    mse_fixed,
    to_beta,
    to_theta,
)
from ctreg import _blas, canonical
from ctreg.cli import main as cli_main


def random_dataset(seed, n, d, noise=1.0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    beta = rng.standard_normal(d)
    Y = X @ beta + noise * rng.standard_normal(n)
    return Dataset(X, Y), beta


def conditioned_dataset(seed, n, d, ratio, noise=0.1):
    """Rank min(n, d) design whose X^T X / n has eigenvalues log-spaced
    from 1 down to 1 / ratio."""
    rng = np.random.default_rng(seed)
    r = min(n, d)
    left, _ = np.linalg.qr(rng.standard_normal((n, r)))
    right, _ = np.linalg.qr(rng.standard_normal((d, r)))
    eigenvalues = np.logspace(0.0, -np.log10(ratio), r)
    X = np.sqrt(n) * (left * np.sqrt(eigenvalues)) @ right.T
    Y = X @ rng.standard_normal(d) + noise * rng.standard_normal(n)
    return Dataset(X, Y)


# n < d, n > d and n = d: the two Gram routes and the boundary between them
SHAPES = [(40, 80), (80, 40), (50, 50)]


class TestDataset:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.ones(3), np.ones(3))
        with pytest.raises(ValueError):
            Dataset(np.ones((3, 2)), np.ones(4))
        with pytest.raises(ValueError):
            Dataset(np.ones((0, 2)), np.ones(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        design = np.ones((3, 2))
        design[2, 1] = bad
        with pytest.raises(ValueError, match=r"design .* index \(2, 1\)"):
            Dataset(design, np.ones(3))
        response = np.ones(3)
        response[1] = bad
        with pytest.raises(ValueError, match=r"response .* index \(1,\)"):
            Dataset(np.ones((3, 2)), response)

    def test_properties(self):
        ds = Dataset(np.ones((5, 3)), np.ones(5))
        assert ds.n == 5 and ds.d == 3


class TestCanonicalize:
    def test_scaled_identity_design(self):
        # X = 2 I_4 with n = 4 makes X/sqrt(n) exactly orthonormal
        dec = canonicalize(Dataset(2.0 * np.eye(4), np.zeros(4)))
        assert dec.rank == 4
        np.testing.assert_allclose(dec.eigenvalues, np.ones(4))
        np.testing.assert_allclose(dec.right_vectors, np.eye(4))
        np.testing.assert_allclose(dec.left_vectors, np.eye(4))

    def test_rank_one_design(self):
        # hand eigendecomposition: Gram [[1,1],[1,1]] has one eigenvalue 2
        X = np.array([[1.0, 1.0], [1.0, 1.0]])
        dec = canonicalize(Dataset(X, np.zeros(2)))
        assert dec.rank == 1
        np.testing.assert_allclose(dec.eigenvalues, [2.0], atol=1e-12)
        np.testing.assert_allclose(
            dec.right_vectors[:, 0], [1 / np.sqrt(2)] * 2, atol=1e-12
        )

    def test_reconstruction(self):
        ds, _ = random_dataset(0, 6, 4)
        dec = canonicalize(ds)
        recon = (
            dec.left_vectors
            * dec.singular_values
            @ dec.right_vectors.T
        )
        np.testing.assert_allclose(
            recon, ds.design / np.sqrt(6), atol=1e-10
        )

    def test_zero_design_raises(self):
        with pytest.raises(ZeroDesignError, match="zero design matrix"):
            canonicalize(Dataset(np.zeros((3, 2)), np.zeros(3)))

    def test_rank_cutoff_drops_small_components(self):
        rng = np.random.default_rng(2)
        base = rng.standard_normal((8, 2))
        X = np.hstack([base, base @ rng.standard_normal((2, 2))])
        dec = canonicalize(Dataset(X, np.zeros(8)))
        assert dec.rank == 2

    def test_sign_convention(self):
        ds, _ = random_dataset(3, 10, 6)
        dec = canonicalize(ds)
        for j in range(dec.rank):
            col = dec.right_vectors[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_tall_identity_design_keeps_index_order(self):
        # X / sqrt(n) = [I; 0] with n > d: X^T X / n = I exactly, so every
        # eigenvalue ties and the columns keep their index order
        X = np.sqrt(8.0) * np.vstack([np.eye(4), np.zeros((4, 4))])
        dec = canonicalize(Dataset(X, np.zeros(8)))
        np.testing.assert_allclose(dec.eigenvalues, np.ones(4), rtol=1e-15)
        np.testing.assert_allclose(dec.right_vectors, np.eye(4), atol=1e-15)
        np.testing.assert_allclose(dec.left_vectors, X / np.sqrt(8.0), atol=1e-15)

    @pytest.mark.parametrize("n, d", SHAPES)
    def test_matches_svd_on_both_routes(self, n, d):
        ds, _ = random_dataset(15, n, d)
        dec = canonicalize(ds)
        s = np.linalg.svd(ds.design / np.sqrt(n), compute_uv=False)
        np.testing.assert_allclose(dec.eigenvalues, s**2, rtol=1e-12)
        r = dec.rank
        np.testing.assert_allclose(dec.right_vectors.T @ dec.right_vectors, np.eye(r), atol=1e-12)
        np.testing.assert_allclose(dec.left_vectors.T @ dec.left_vectors, np.eye(r), atol=1e-12)
        recon = dec.left_vectors * dec.singular_values @ dec.right_vectors.T
        np.testing.assert_allclose(recon, ds.design / np.sqrt(n), atol=1e-12)

    @pytest.mark.parametrize("n, d", [(6, 10), (10, 6)])
    def test_rank_floor_is_relative_to_top_eigenvalue(self, n, d):
        # the floor compares eigenvalues (squared singular values) with
        # 1e-12 times the largest one
        left, _ = np.linalg.qr(np.random.default_rng(16).standard_normal((n, 2)))
        right, _ = np.linalg.qr(np.random.default_rng(17).standard_normal((d, 2)))
        for small, rank in ((1e-11, 2), (1e-13, 1)):
            X = np.sqrt(n) * (left * np.sqrt([1.0, small])) @ right.T
            assert canonicalize(Dataset(X, np.zeros(n))).rank == rank


def reference_pivot_signs(vectors):
    """The documented sign rule written out: the sign of each column's
    first largest-magnitude entry, +1 for a zero column."""
    pivot = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[pivot, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return signs


class TestPivotSigns:
    # entries in -2..2: many columns with an exact +-tie, and zero columns
    @settings(max_examples=200, deadline=None)
    @given(
        arrays(
            np.int64,
            st.tuples(st.integers(1, 7), st.integers(1, 7)),
            elements=st.integers(-2, 2),
        ),
        st.booleans(),
    )
    def test_matches_the_documented_rule(self, matrix, fortran):
        vectors = matrix.astype(np.float64, order="F" if fortran else "C")
        np.testing.assert_array_equal(
            canonical._pivot_signs(vectors), reference_pivot_signs(vectors)
        )

    def test_exact_ties_go_to_the_first_entry(self):
        vectors = np.array(
            [[0.0, -1.0, 2.0, 0.0, -3.0],
             [0.0, 1.0, -2.0, -0.0, 1.0],
             [0.0, -1.0, 1.0, 0.0, 3.0]]
        )
        for order in ("C", "F"):
            np.testing.assert_array_equal(
                canonical._pivot_signs(np.asarray(vectors, order=order)),
                [1.0, -1.0, 1.0, 1.0, -1.0],
            )


class TestMemoryFloor:
    @pytest.mark.parametrize("n, d", [(200, 4000), (4000, 200)])
    def test_peak_is_the_kept_arrays(self, n, d):
        # beyond X, the decomposition holds the m x m products, which the
        # memo keeps for the CV folds, the Gram matrix it factors with about
        # 1.5 m^2 floats beside it, and the retained Gram side (m = 200);
        # the far side, 6.4 MB at these shapes, is never formed, and what
        # stays is the kept arrays
        ds, _ = random_dataset(18, n, d)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            dec = canonicalize(ds)
            held, peak = (value - before for value in tracemalloc.get_traced_memory())
        finally:
            if not tracing:
                tracemalloc.stop()
        kept = [dec.eigenvalues, dec.gram_vectors, *canonical._products(ds, n <= d)]
        kept_bytes = sum(a.nbytes for a in kept)
        assert peak <= 2 * 2**20, (peak, kept_bytes)
        assert held <= kept_bytes + 2**16, (held, kept_bytes)


def symmetric_matrix(seed, n):
    A = np.random.default_rng(seed).standard_normal((n, n + 3))
    return A @ A.T  # exactly symmetric


class GuardedNumpy:
    """numpy, except that ``empty`` returns memory whose bytes are all 0xFF
    (a NaN as float64, -1 as an integer), followed by a guard region of as
    many bytes again; ``intact`` tells whether every guard still holds
    them, and ``allocated`` lists each (shape, dtype) asked for."""

    def __init__(self):
        self.allocated = []
        self._buffers = []  # (raw bytes, the array's size in bytes)

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, shape, dtype=np.float64, order="C"):
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        dtype = np.dtype(dtype)
        self.allocated.append((shape, dtype))
        size = int(np.prod(shape)) * dtype.itemsize
        raw = np.full(2 * size + 8, 0xFF, dtype=np.uint8)
        self._buffers.append((raw, size))
        return raw[:size].view(dtype).reshape(shape, order=order)

    def intact(self):
        return all(np.all(raw[size:] == 0xFF) for raw, size in self._buffers)


def factored_eigh(a):
    """(eigenvalues, vectors) of a from its factors, the vectors formed."""
    factors = _blas.eigh_factors(a)
    return factors.eigenvalues, factors.form()


class TestEighInPlace:
    """The one LAPACK eigensolver: ``eigh_factors`` and the forming step give
    numpy.linalg.eigh's bits, in the caller's buffer, with the LAPACKE
    binding and without it."""

    # dsyevd scales a matrix whose largest entry lies outside about 1e+-146
    SCALES = (1.0, 1e-200, 1e200, 1e-300, 1e300)

    @pytest.mark.parametrize("n", [1, 2, 40, 64, 65, 300])
    def test_bits_of_numpy_eigh_in_the_callers_buffer(self, monkeypatch, n):
        for binding in (True, False):
            if not binding:
                monkeypatch.setattr(_blas, "tridiagonal_solver", lambda: None)
            for scale in self.SCALES:
                G = scale * symmetric_matrix(n, n)
                expected = np.linalg.eigh(G)
                for order in ("C", "F"):
                    work = np.array(G, order=order)
                    factors = _blas.eigh_factors(work)
                    vec = factors.form()
                    assert np.array_equal(factors.eigenvalues, expected[0]), (scale, order)
                    assert np.array_equal(vec, expected[1]), (scale, order)
                    assert vec is factors.vectors
                    if binding and _blas.tridiagonal_solver() is not None:
                        # Z, then the vectors, are written over the matrix
                        assert np.shares_memory(vec, work)

    @pytest.mark.parametrize("n", [1, 2, 40, 300])
    def test_unwritten_memory_is_never_read(self, monkeypatch, n):
        # every array _blas allocates starts as NaN bits, guarded past its
        # end, and the packed diagonal, which dormtr must not read, is NaN
        # too: apply and form give the bits they give without any of it,
        # and no LAPACK call writes past the end of a buffer
        G = symmetric_matrix(n + 11, n)
        x = np.asfortranarray(np.random.default_rng(n).standard_normal((n, 3)))
        for binding in (True, False):
            if not binding:
                monkeypatch.setattr(_blas, "tridiagonal_solver", lambda: None)
            solver = _blas.tridiagonal_solver()
            guarded = GuardedNumpy()
            with monkeypatch.context() as patch:
                patch.setattr(_blas, "np", guarded)
                factors = _blas.eigh_factors(G.copy())
                if solver is None:
                    assert factors.reflectors is None and factors.tau is None
                else:
                    assert factors.reflectors.shape == (n * (n + 1) // 2,)
                    assert factors.tau.shape == (max(n - 1, 1),)
                    # dstedc's iwork, one LAPACK integer per entry
                    lapack_int = np.dtype(np.int64 if solver.symbols[0].endswith("64_")
                                          else np.int32)
                    assert ((3 + 5 * n,), lapack_int) in guarded.allocated
                    columns = np.arange(n)
                    factors.reflectors[columns * n - columns * (columns - 1) // 2] = np.nan
                actual = [factors.apply(x.copy(order="F"), transpose)
                          for transpose in (True, False)]
                actual.append(factors.form())
            assert guarded.intact(), binding
            plain = _blas.eigh_factors(G.copy())
            expected = [plain.apply(x.copy(order="F"), transpose) for transpose in (True, False)]
            expected.append(plain.form())
            assert np.array_equal(factors.eigenvalues, plain.eigenvalues), binding
            for got, want in zip(actual, expected):
                assert np.array_equal(got, want), binding

    def test_f_order_is_read_in_its_own_order(self):
        # symmetric only to roundoff: an F-order buffer is what numpy
        # decomposes, whichever triangle differs
        G = symmetric_matrix(7, 60)
        G += 1e-12 * np.random.default_rng(7).standard_normal(G.shape)
        expected = np.linalg.eigh(G)
        eig, vec = factored_eigh(np.array(G, order="F"))
        assert np.array_equal(eig, expected[0]) and np.array_equal(vec, expected[1])

    def test_both_routes_and_nan_as_numpy(self, monkeypatch):
        G = symmetric_matrix(8, 30)
        G[3, 3] = np.nan
        expected = np.linalg.eigh(G)
        routes = [factored_eigh(G.copy())]
        monkeypatch.setattr(_blas, "tridiagonal_solver", lambda: None)
        routes.append(factored_eigh(G.copy()))
        for eig, vec in routes:
            np.testing.assert_array_equal(eig, expected[0])
            np.testing.assert_array_equal(vec, expected[1])

    def test_unwritable_or_strided_buffers_rejected(self):
        G = symmetric_matrix(9, 6)
        G.flags.writeable = False
        for bad in (G, symmetric_matrix(9, 12)[::2, ::2], np.ones((3, 4))):
            with pytest.raises(ValueError, match="writeable contiguous square"):
                _blas.eigh_factors(bad)

    def test_basis_uses_its_argument_as_the_workspace(self):
        # every caller passes a temporary; the formed basis is a copy
        G = symmetric_matrix(10, 50)
        work = G.copy()
        basis = canonical._Basis(work, canonical.RANK_REL_TOL)
        eig, vec = basis.eigenvalues, basis.formed()[0]
        assert not np.shares_memory(vec, work)
        np.testing.assert_allclose(vec * eig @ vec.T, G, atol=1e-12 * eig[0])


class TestGramRouteAccuracy:
    """The Gram eigendecomposition resolves an eigenvalue lambda_j to about
    eps * lambda_max / lambda_j relative; minimum-norm coefficients and fitted
    values are checked against np.linalg.lstsq (an SVD-based solver) at the
    ratio lambda_max / lambda_min = 1e10 that the canonicalize docstring
    names."""

    RATIO = 1e10

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("n, d", SHAPES)
    def test_min_norm_ls_against_lstsq(self, n, d, seed):
        ds = conditioned_dataset(seed, n, d, self.RATIO)
        dec = canonicalize(ds)
        assert dec.rank == min(n, d)
        beta = to_beta(dec, canonical_ls(dec, ds.response))
        reference = np.linalg.lstsq(ds.design, ds.response, rcond=None)[0]
        bound = np.finfo(float).eps * self.RATIO
        assert np.linalg.norm(beta - reference) <= bound * np.linalg.norm(reference)
        fitted, fitted_ref = ds.design @ beta, ds.design @ reference
        assert np.linalg.norm(fitted - fitted_ref) <= bound * np.linalg.norm(fitted_ref)

    @pytest.mark.parametrize("n, d", SHAPES)
    def test_well_conditioned_design_at_full_precision(self, n, d):
        ds = conditioned_dataset(2, n, d, 10.0)
        dec = canonicalize(ds)
        beta = to_beta(dec, canonical_ls(dec, ds.response))
        reference = np.linalg.lstsq(ds.design, ds.response, rcond=None)[0]
        np.testing.assert_allclose(beta, reference, rtol=0, atol=1e-13 * np.abs(reference).max())


class TestCanonicalLs:
    def test_zero_response(self):
        ds, _ = random_dataset(4, 8, 5)
        dec = canonicalize(ds)
        np.testing.assert_array_equal(
            canonical_ls(dec, np.zeros(8)), np.zeros(dec.rank)
        )

    def test_noiseless_response(self):
        ds, beta = random_dataset(5, 12, 5, noise=0.0)
        dec = canonicalize(ds)
        theta = canonical_ls(dec, ds.response)
        expected = dec.singular_values * (dec.right_vectors.T @ beta)
        np.testing.assert_allclose(theta, expected, atol=1e-10)

    def test_pseudoinverse_oracle(self):
        ds, _ = random_dataset(6, 10, 6)
        dec = canonicalize(ds)
        beta_pinv = np.linalg.pinv(ds.design) @ ds.response
        expected = dec.singular_values * (dec.right_vectors.T @ beta_pinv)
        np.testing.assert_allclose(
            canonical_ls(dec, ds.response), expected, atol=1e-10
        )

    def test_length_mismatch(self):
        ds, _ = random_dataset(7, 8, 4)
        dec = canonicalize(ds)
        with pytest.raises(ValueError):
            canonical_ls(dec, np.zeros(9))


class TestCoordinateMaps:
    def test_zero_theta(self):
        ds, _ = random_dataset(8, 7, 4)
        dec = canonicalize(ds)
        np.testing.assert_array_equal(
            to_beta(dec, np.zeros(dec.rank)), np.zeros(4)
        )

    def test_orthonormal_identity_map(self):
        dec = canonicalize(Dataset(np.sqrt(2.0) * np.eye(2), np.zeros(2)))
        theta = np.array([1.0, 2.0])
        np.testing.assert_allclose(to_beta(dec, theta), [1.0, 2.0], atol=1e-12)

    def test_round_trip(self):
        ds, _ = random_dataset(9, 9, 5)
        dec = canonicalize(ds)
        theta = np.random.default_rng(9).standard_normal(dec.rank)
        back = to_theta(dec, to_beta(dec, theta))
        np.testing.assert_allclose(back, theta, atol=1e-10)

    def test_to_theta_matches_matrix_product(self):
        ds, beta = random_dataset(10, 8, 5)
        dec = canonicalize(ds)
        expected = np.diag(dec.singular_values) @ dec.right_vectors.T @ beta
        np.testing.assert_allclose(to_theta(dec, beta), expected, atol=1e-12)

    def test_null_space_invisible(self):
        # beta orthogonal to every retained right vector maps to theta = 0
        ds, _ = random_dataset(11, 4, 7)
        dec = canonicalize(ds)
        h = np.random.default_rng(11).standard_normal(7)
        perp = h - dec.right_vectors @ (dec.right_vectors.T @ h)
        np.testing.assert_allclose(
            to_theta(dec, perp), np.zeros(dec.rank), atol=1e-10
        )

    def test_minimum_norm_lift(self):
        ds, _ = random_dataset(12, 5, 8)
        dec = canonicalize(ds)
        rng = np.random.default_rng(12)
        theta = rng.standard_normal(dec.rank)
        beta = to_beta(dec, theta)
        for _ in range(5):
            h = rng.standard_normal(8)
            shifted = beta + (h - dec.right_vectors @ (dec.right_vectors.T @ h))
            assert np.linalg.norm(beta) <= np.linalg.norm(shifted) + 1e-12


class TestInvariances:
    def test_rotation_invariance_of_fitted_values(self):
        ds, _ = random_dataset(13, 12, 6)
        rng = np.random.default_rng(13)
        Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        rotated = Dataset(ds.design @ Q, ds.response)
        dec = canonicalize(ds)
        dec_rot = canonicalize(rotated)
        theta = canonical_ls(dec, ds.response)
        theta_rot = canonical_ls(dec_rot, ds.response)
        np.testing.assert_allclose(np.abs(theta), np.abs(theta_rot), atol=1e-8)
        fit = np.sqrt(12) * dec.left_vectors @ theta
        fit_rot = np.sqrt(12) * dec_rot.left_vectors @ theta_rot
        np.testing.assert_allclose(fit, fit_rot, atol=1e-8)

    def test_sign_flip_invariance(self):
        # flipped Gram-side columns flip theta_LS and the far side with
        # them, and leave beta as it was, on both routes
        for n, d in ((10, 5), (5, 10)):
            ds, _ = random_dataset(14, n, d)
            dec = canonicalize(ds)
            signs = np.array([1.0, -1.0, 1.0, -1.0, -1.0][: dec.rank])
            flipped = CanonicalDecomposition(dec.eigenvalues, dec.design, dec.gram_vectors * signs)
            theta = canonical_ls(dec, ds.response)
            theta_f = canonical_ls(flipped, ds.response)
            np.testing.assert_array_equal(theta_f, signs * theta)
            np.testing.assert_array_equal(flipped.right_vectors, dec.right_vectors * signs)
            np.testing.assert_array_equal(flipped.left_vectors, dec.left_vectors * signs)
            np.testing.assert_allclose(
                to_beta(dec, theta), to_beta(flipped, theta_f), atol=1e-10
            )


class TestFarSide:
    """The decomposition keeps the Gram side; the far side is formed only
    when ``right_vectors`` or ``left_vectors`` asks for it."""

    @pytest.mark.parametrize("n, d", [(8, 20), (20, 8)])
    def test_far_side_is_the_product_with_x(self, n, d):
        ds, _ = random_dataset(43, n, d)
        dec = canonicalize(ds)
        wide = n <= d
        far = dec.right_vectors if wide else dec.left_vectors
        expected = (ds.design.T if wide else ds.design) @ dec.gram_vectors
        np.testing.assert_allclose(far, expected / (np.sqrt(n) * dec.singular_values), atol=1e-14)
        assert not far.flags.writeable
        assert (dec.left_vectors if wide else dec.right_vectors) is dec.gram_vectors
        assert (dec.right_vectors if wide else dec.left_vectors) is far

    @pytest.mark.parametrize("n, d", [(8, 20), (20, 8)])
    def test_pickle_round_trip(self, n, d):
        # a fit, and the decomposition it holds, pickle before and after
        # the far side is read
        ds, _ = random_dataset(44, n, d)
        fit = fit_gct(ds, GctConfig(tau=0.1, phi=1.0))
        for _ in range(2):
            copy = pickle.loads(pickle.dumps(fit))
            np.testing.assert_array_equal(copy.beta, fit.beta)
            dec, dec_copy = fit.decomposition, copy.decomposition
            np.testing.assert_array_equal(dec_copy.gram_vectors, dec.gram_vectors)
            np.testing.assert_array_equal(dec_copy.right_vectors, dec.right_vectors)
            np.testing.assert_array_equal(dec_copy.left_vectors, dec.left_vectors)

    @pytest.mark.parametrize("n, d", [(24, 40), (40, 6)])
    def test_no_fit_tuner_or_command_reads_the_far_side(self, monkeypatch, tmp_path, n, d):
        def far_side(self):
            raise AssertionError("the far side was formed")

        monkeypatch.setattr(CanonicalDecomposition, "_far_side", property(far_side))
        ds, beta = random_dataset(45, n, d)
        dec = canonicalize(ds)
        fit_nct(ds, 0.1)
        fit_gct(ds, GctConfig(tau=0.1, phi=1.0, rule=HARD_RULE))
        fit_pcr(ds, 3)
        fit_ridge(ds, 0.1)
        fit_min_norm_ls(ds)
        kfold_cv(ds, 5, 0.0, SOFT_RULE, 0)
        joint_cv(ds, 5, (0.0, 1.0), HARD_RULE, 0)
        kfold_cv_pcr(ds, 5, 0)
        kfold_cv_ridge(ds, 5, (0.1, 1.0), 0)
        cv_error_at(ds, 5, 1.0, SOFT_RULE, 0, 0.1)
        grid_cv_oracle(ds, 5, 1.0, HARD_RULE, (0.0, 0.1), 0)
        mse_fixed(np.zeros(d), beta, dec)
        to_theta(dec, beta)
        data, beta_csv = str(tmp_path / "data.csv"), str(tmp_path / "beta.csv")
        header = ",".join([f"x{j}" for j in range(d)] + ["y"])
        np.savetxt(data, np.column_stack((ds.design, ds.response)), delimiter=",",
                   header=header, comments="")
        np.savetxt(beta_csv, beta)
        common = ["--input", data, "--response", "y"]
        for method in ("ols", "nct", "gct", "pcr:2", "ridge:0.5"):
            out = str(tmp_path / "m.json")
            assert cli_main(["fit", *common, "--method", method, "--output", out]) == 0
        assert cli_main(["fit", *common, "--method", "gct", "--tau-auto", "1,0.05,2",
                         "--output", out]) == 0
        assert cli_main(["cv", *common, "--folds", "5", "--fit-out", out]) == 0
        assert cli_main(["diagnose", *common, "--beta", beta_csv, "--sigma", "0.1"]) == 0


class TestRouteCrossing:
    """n zero columns appended to a tall design send it to the wide route:
    the spectrum, |theta_LS|, the fitted values of the five fits and their
    beta, padded with zeros, must agree with the tall route's, to within
    the documented eps * lambda_max / lambda_min."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(4, 16),
        share=st.floats(0.0, 1.0),
        log_ratio=st.floats(1.0, 4.0),
    )
    def test_zero_columns_cross_the_routes(self, seed, n, share, log_ratio):
        rng = np.random.default_rng(seed)
        d = 1 + int(share * (n // 2 - 1))
        # eigenvalues log-spaced from 1 to 1 / ratio, so no two are close
        ratio = 10.0**log_ratio
        left, _ = np.linalg.qr(rng.standard_normal((n, d)))
        right, _ = np.linalg.qr(rng.standard_normal((d, d)))
        X = np.sqrt(n) * (left * np.sqrt(np.logspace(0.0, -log_ratio, d))) @ right.T
        Y = X @ rng.standard_normal(d) + 0.3 * rng.standard_normal(n)
        tall, wide = Dataset(X, Y), Dataset(np.hstack([X, np.zeros((n, n))]), Y)
        dec, dec_wide = canonicalize(tall), canonicalize(wide)
        eps = np.finfo(float).eps
        tol = 64 * eps * ratio
        assert dec_wide.rank == dec.rank == d
        np.testing.assert_allclose(
            dec_wide.eigenvalues, dec.eigenvalues, rtol=0, atol=4 * n * eps * dec.eigenvalues[0]
        )
        theta = canonical_ls(dec, Y)
        theta_wide = canonical_ls(dec_wide, Y)
        assert np.linalg.norm(np.abs(theta_wide) - np.abs(theta)) <= tol * np.linalg.norm(theta)
        # the hard threshold halfway between the two largest weighted
        # magnitudes, where roundoff cannot move a coordinate across it
        mags = np.sort(np.sqrt(dec.eigenvalues) * np.abs(theta))[::-1]
        tau = (mags[0] + mags[1]) / 2 if d > 1 else mags[0] / 2
        fits = (
            fit_min_norm_ls,
            lambda ds: fit_nct(ds, 0.3 * np.abs(theta).max()),
            lambda ds: fit_gct(ds, GctConfig(tau=tau, phi=1.0, rule=HARD_RULE)),
            lambda ds: fit_pcr(ds, int(share * d)),
            lambda ds: fit_ridge(ds, 0.1),
        )
        for fit in fits:
            beta, beta_wide = fit(tall).beta, fit(wide).beta
            assert not np.any(beta_wide[d:])
            gap = np.linalg.norm(beta_wide[:d] - beta)
            assert gap <= tol * np.linalg.norm(beta), fit
            fitted = X @ beta
            assert np.linalg.norm(X @ beta_wide[:d] - fitted) <= tol * np.linalg.norm(fitted)


needs_openblas = pytest.mark.skipif(
    _blas.thread_control() is None,
    reason="no OpenBLAS thread control: nothing is pinned",
)


@needs_openblas
class TestPinnedDecomposition:
    @pytest.mark.parametrize("n, d", [(12, 30), (30, 12)])
    def test_one_blas_thread_inside_and_the_count_restored(
        self, monkeypatch, blas_threads, n, d
    ):
        seen = []
        core = canonical._Basis

        def spy(gram, rank_rel_tol):
            seen.append(blas_threads())
            return core(gram, rank_rel_tol)

        monkeypatch.setattr(canonical, "_Basis", spy)
        ds, _ = random_dataset(40, n, d)
        canonicalize(ds)
        assert seen == [1]
        assert blas_threads() == 2
        with pytest.raises(ZeroDesignError):
            canonicalize(Dataset(np.zeros((n, d)), np.ones(n)))
        assert seen == [1, 1]
        assert blas_threads() == 2

    def test_count_restored_when_the_core_raises(self, monkeypatch, blas_threads):
        def broken(gram, rank_rel_tol):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(canonical, "_Basis", broken)
        ds, _ = random_dataset(41, 10, 4)
        with pytest.raises(np.linalg.LinAlgError):
            canonicalize(ds)
        assert blas_threads() == 2

    @pytest.mark.parametrize("n, d", [(12, 30), (30, 12)])
    def test_far_side_formed_once_on_one_blas_thread(self, monkeypatch, blas_threads, n, d):
        seen = []
        pin = canonical.pinned

        @contextlib.contextmanager
        def spy():
            with pin():
                seen.append(blas_threads())
                yield

        ds, _ = random_dataset(46, n, d)
        dec = canonicalize(ds)
        monkeypatch.setattr(canonical, "pinned", spy)
        far = dec.right_vectors if n <= d else dec.left_vectors
        assert seen == [1]
        assert blas_threads() == 2
        assert (dec.right_vectors if n <= d else dec.left_vectors) is far
        assert seen == [1]

    def test_memo_hit_takes_no_pin(self, monkeypatch):
        ds, _ = random_dataset(42, 10, 4)
        dec = canonicalize(ds)

        def no_pin():
            raise AssertionError("a memo hit must not pin")

        monkeypatch.setattr(canonical, "pinned", no_pin)
        assert canonicalize(ds) is dec

    def test_fits_do_not_depend_on_the_blas_thread_count(self):
        # both routes, and the far side too; at 2 threads an unpinned Gram
        # product and eigh change the last bits of 130 x 300 and 400 x 150
        # fits
        script = (
            "import hashlib, numpy as np\n"
            "from ctreg import Dataset, GctConfig, fit_gct, fit_min_norm_ls\n"
            "from ctreg.estimators import fit_pcr, fit_ridge\n"
            "for n, d in [(130, 300), (220, 200), (400, 150)]:\n"
            "    rng = np.random.default_rng(n + d)\n"
            "    X = rng.standard_normal((n, d)) / np.arange(1, d + 1.0)\n"
            "    ds = Dataset(X, X @ rng.standard_normal(d) + 0.1 * rng.standard_normal(n))\n"
            "    h = hashlib.sha256()\n"
            "    for fit in (fit_gct(ds, GctConfig(tau=0.01, phi=1.0)), fit_pcr(ds, 5),\n"
            "                fit_ridge(ds, 0.1), fit_min_norm_ls(ds)):\n"
            "        h.update(fit.beta.tobytes())\n"
            "    dec = fit.decomposition\n"
            "    h.update(dec.right_vectors.tobytes() + dec.left_vectors.tobytes())\n"
            "    print(n, d, h.hexdigest())\n"
        )
        src = os.path.dirname(os.path.dirname(canonical.__file__))
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script],
                env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads),
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            ).stdout
            for threads in ("1", "2")
        ]
        assert outputs[0].count("\n") == 3
        assert outputs[0] == outputs[1]
