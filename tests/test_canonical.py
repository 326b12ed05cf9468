"""Tests for the canonical-form decomposition and coordinate maps."""

import numpy as np
import pytest

from ctreg import (
    Dataset,
    ZeroDesignError,
    canonical_ls,
    canonicalize,
    to_beta,
    to_theta,
)


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

    def test_rank_tolerance_range(self):
        ds, _ = random_dataset(1, 5, 3)
        with pytest.raises(ValueError):
            canonicalize(ds, rank_rel_tol=0.0)
        with pytest.raises(ValueError):
            canonicalize(ds, rank_rel_tol=2.0)

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
        from dataclasses import replace

        ds, _ = random_dataset(14, 10, 5)
        dec = canonicalize(ds)
        signs = np.array([1.0, -1.0, 1.0, -1.0, -1.0][: dec.rank])
        flipped = replace(
            dec,
            right_vectors=dec.right_vectors * signs,
            left_vectors=dec.left_vectors * signs,
        )
        theta = canonical_ls(dec, ds.response)
        theta_f = canonical_ls(flipped, ds.response)
        np.testing.assert_allclose(
            to_beta(dec, theta), to_beta(flipped, theta_f), atol=1e-10
        )
