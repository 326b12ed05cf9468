"""Tests for the Dataset memo: the products of X, one decomposition and one
fold split per dataset."""

import copy
import dataclasses
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctreg import (
    Dataset,
    GctConfig,
    HARD_RULE,
    SOFT_RULE,
    canonicalize,
    cv_error_at,
    fit_gct,
    fit_pcr,
    fit_ridge,
    grid_cv_oracle,
    joint_cv,
    kfold_cv,
    kfold_cv_pcr,
    kfold_cv_ridge,
    _blas,
    tuning,
)
from ctreg.tuning import _fold_spectra, _path_cv

RIDGE_GRID = np.logspace(-4, 1, 7)


def arrays(seed, n, d):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d)) / np.arange(1, d + 1.0)
    Y = X @ rng.standard_normal(d) + 0.3 * rng.standard_normal(n)
    return X, Y


def bits(value):
    """A hashable, bit-exact summary of a tuner's or a fit's output."""
    if isinstance(value, tuple):
        return tuple(bits(item) for item in value)
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return value.hex()
    if hasattr(value, "tau_cv"):
        return bits(
            (
                value.tau_cv,
                value.cv_error_at_tau,
                value.candidate_set,
                value.fold_assignment,
                value.fold_ranks,
                value.fold_eigenvalue_ratios,
                value.path_segments,
            )
            + tuple(value.fold_breakpoints)
        )
    if hasattr(value, "beta"):
        return bits((value.beta, value.theta_hat))
    return value


def run_call(ds, call):
    tuner, L, seed, phi, rule = call
    if tuner == "kfold_cv":
        return kfold_cv(ds, L, phi, rule, seed)
    if tuner == "joint_cv":
        return joint_cv(ds, L, (0.0, phi), rule, seed)
    if tuner == "pcr":
        return kfold_cv_pcr(ds, L, seed)
    if tuner == "ridge":
        return kfold_cv_ridge(ds, L, RIDGE_GRID, seed)
    if tuner == "fit_gct":
        return fit_gct(ds, GctConfig(tau=0.05, phi=phi, rule=rule))
    if tuner == "fit_pcr":
        return fit_pcr(ds, 2)
    return fit_ridge(ds, 0.1)


calls = st.tuples(
    st.sampled_from(
        ["kfold_cv", "joint_cv", "pcr", "ridge", "fit_gct", "fit_pcr", "fit_ridge"]
    ),
    st.sampled_from([2, 3, 5]),
    st.integers(0, 3),
    st.sampled_from([0.0, 1.0]),
    st.sampled_from([SOFT_RULE, HARD_RULE]),
)


class TestMemoizedTuners:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([(40, 8), (12, 30), (15, 15)]),
        st.lists(calls, min_size=1, max_size=8),
    )
    def test_call_sequence_matches_fresh_datasets(self, shape, sequence):
        X, Y = arrays(sum(shape), *shape)
        shared = Dataset(X, Y)
        for call in sequence:
            assert bits(run_call(shared, call)) == bits(run_call(Dataset(X, Y), call))

    def test_soft_then_hard_reuses_the_split(self):
        ds = Dataset(*arrays(0, 60, 10))
        kfold_cv(ds, 5, 0.0, SOFT_RULE, 7)
        spectra = ds._memo["fold_spectra"][1]
        kfold_cv(ds, 5, 0.0, HARD_RULE, 7)
        kfold_cv_pcr(ds, 5, 7)
        assert ds._memo["fold_spectra"][1] is spectra

    def test_memo_holds_only_the_last_split(self):
        ds = Dataset(*arrays(1, 50, 6))
        for seed in range(5):
            kfold_cv(ds, 5, 0.0, SOFT_RULE, seed)
        assert set(ds._memo) == {"inner_products", "fold_spectra"}
        key, _ = ds._memo["fold_spectra"]
        assert key == (5, 4)

    def test_direct_evaluators_leave_the_memo_empty(self):
        ds = Dataset(*arrays(2, 30, 40))
        cv_error_at(ds, 5, 1.0, SOFT_RULE, 3, 0.1)
        grid_cv_oracle(ds, 5, 0.0, HARD_RULE, np.linspace(0.0, 1.0, 11), 3)
        assert "fold_spectra" not in ds._memo

    def test_direct_evaluators_do_not_read_the_memo(self):
        X, Y = arrays(3, 40, 8)
        ds = Dataset(X, Y)
        kfold_cv(ds, 4, 0.0, SOFT_RULE, 1)
        ds._memo["fold_spectra"] = (ds._memo["fold_spectra"][0], None)
        fresh = Dataset(X, Y)
        assert cv_error_at(ds, 4, 0.0, SOFT_RULE, 1, 0.2) == cv_error_at(
            fresh, 4, 0.0, SOFT_RULE, 1, 0.2
        )

    def test_fold_assignment_is_a_copy(self):
        ds = Dataset(*arrays(4, 30, 5))
        first = kfold_cv(ds, 3, 0.0, SOFT_RULE, 2)
        expected = first.fold_assignment.copy()
        first.fold_assignment[:] = 0
        again = kfold_cv(ds, 3, 0.0, HARD_RULE, 2)
        np.testing.assert_array_equal(again.fold_assignment, expected)
        assert again.fold_assignment is not ds._memo["fold_spectra"][1].assignment

    def test_threads_racing_on_one_dataset(self, monkeypatch, blas_threads):
        # more threads than cores and a short switch interval, so lookups and
        # stores of different seeds interleave; every hit must match its key.
        # Each fold map has a helper, even on one CPU, and the maps' pins of
        # the OpenBLAS thread count overlap: the last one out restores it.
        monkeypatch.setattr(_blas, "usable_cpus", lambda: 2)
        X, Y = arrays(5, 40, 6)
        ds = Dataset(X, Y)
        seeds = (0, 1, 2, 3)
        expected = {
            seed: bits(kfold_cv(Dataset(X, Y), 4, 0.0, SOFT_RULE, seed))
            for seed in seeds
        }
        seen = []

        def worker(seed):
            for _ in range(10):
                seen.append((seed, bits(kfold_cv(ds, 4, 0.0, SOFT_RULE, seed))))

        threads = [threading.Thread(target=worker, args=(seed,)) for seed in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 10 * len(seeds)
        assert all(result == expected[seed] for seed, result in seen)
        assert blas_threads() == 2


class TestDatasetMemo:
    def test_arrays_are_read_only_copies(self):
        X, Y = arrays(6, 20, 4)
        ds = Dataset(X, Y)
        with pytest.raises(ValueError):
            ds.design[0, 0] = 1.0
        with pytest.raises(ValueError):
            ds.response[0] = 1.0
        before = kfold_cv(Dataset(X, Y), 4, 0.0, SOFT_RULE, 0)
        X_saved, Y_saved = X.copy(), Y.copy()
        X[0, 0] += 1.0
        Y[:] = 0.0
        np.testing.assert_array_equal(ds.design, X_saved)
        np.testing.assert_array_equal(ds.response, Y_saved)
        assert bits(kfold_cv(ds, 4, 0.0, SOFT_RULE, 0)) == bits(before)

    def test_canonicalize_is_computed_once(self):
        ds = Dataset(*arrays(7, 25, 10))
        dec = canonicalize(ds)
        assert canonicalize(ds) is dec
        assert fit_gct(ds, GctConfig(tau=0.1)).decomposition is dec
        for array in (dec.eigenvalues, dec.right_vectors, dec.left_vectors):
            assert not array.flags.writeable

    def test_memo_is_not_part_of_repr_equality_or_pickle(self):
        ds = Dataset(*arrays(8, 20, 5))
        canonicalize(ds)
        kfold_cv(ds, 4, 0.0, SOFT_RULE, 0)
        memo = {field.name: field for field in dataclasses.fields(Dataset)}["_memo"]
        assert not memo.repr and not memo.compare
        assert "_memo" not in repr(ds)
        assert ds == Dataset(ds.design, ds.response)
        assert ds != Dataset(ds.design, -ds.response)
        for other in (
            pickle.loads(pickle.dumps(ds)),
            copy.copy(ds),
            copy.deepcopy(ds),
            dataclasses.replace(ds),
        ):
            assert other._memo == {}
            np.testing.assert_array_equal(other.design, ds.design)
            np.testing.assert_array_equal(other.response, ds.response)
            assert not other.design.flags.writeable

    def test_replace_with_new_response_decomposes_again(self):
        X, Y = arrays(9, 30, 6)
        ds = Dataset(X, Y)
        kfold_cv(ds, 3, 0.0, SOFT_RULE, 1)
        other = dataclasses.replace(ds, response=-Y)
        assert bits(kfold_cv(other, 3, 0.0, SOFT_RULE, 1)) == bits(
            kfold_cv(Dataset(X, -Y), 3, 0.0, SOFT_RULE, 1)
        )


def decomposition_bits(dec):
    return bits((dec.eigenvalues, dec.right_vectors, dec.left_vectors))


# the route of the full decomposition and of every 5-fold training block:
# X X^T for both when wide, X^T X for both when tall
ROUTES = [((30, 60), "outer_products"), ((60, 10), "inner_products")]


class TestProducts:
    """canonicalize and every fold split read one products entry per route."""

    @pytest.mark.parametrize("fit_first", [True, False], ids=["fit-first", "cv-first"])
    @pytest.mark.parametrize("shape, name", ROUTES, ids=["wide", "tall"])
    def test_canonicalize_and_the_folds_read_one_entry(self, shape, name, fit_first):
        X, Y = arrays(14, *shape)
        ds = Dataset(X, Y)
        steps = [lambda: canonicalize(ds), lambda: kfold_cv(ds, 5, 0.0, SOFT_RULE, 1)]
        if not fit_first:
            steps.reverse()
        steps[0]()
        products = ds._memo[name][1]
        steps[1]()
        assert ds._memo[name][1] is products
        assert set(ds._memo) == {name, "decomposition", "fold_spectra"}
        fresh = Dataset(X, Y)
        assert decomposition_bits(canonicalize(ds)) == decomposition_bits(
            canonicalize(fresh)
        )
        assert bits(kfold_cv(ds, 5, 0.0, SOFT_RULE, 1)) == bits(
            kfold_cv(fresh, 5, 0.0, SOFT_RULE, 1)
        )

    @pytest.mark.parametrize("shape, name", ROUTES, ids=["wide", "tall"])
    def test_canonicalize_decomposes_the_kept_gram(self, shape, name):
        # a Gram matrix scaled by 4 in the memo scales every eigenvalue by 4
        X, Y = arrays(15, *shape)
        ds = Dataset(X, Y)
        kfold_cv(ds, 5, 0.0, SOFT_RULE, 0)
        gram, *rest = ds._memo[name][1]
        ds._memo[name] = (None, (4.0 * gram, *rest))
        np.testing.assert_allclose(
            canonicalize(ds).eigenvalues,
            4.0 * canonicalize(Dataset(X, Y)).eigenvalues,
            rtol=1e-12,
        )

    @pytest.mark.parametrize("shape", [(30, 60), (60, 10), (55, 50)])
    def test_same_shape_datasets_in_turn_give_fresh_bits(self, shape):
        data = [arrays(16, *shape), arrays(17, *shape)]
        shared = [Dataset(X, Y) for X, Y in data]
        for seed in (0, 1):
            for ds, (X, Y) in zip(shared, data):
                assert bits(kfold_cv(ds, 10, 0.0, SOFT_RULE, seed)) == bits(
                    kfold_cv(Dataset(X, Y), 10, 0.0, SOFT_RULE, seed)
                )
                assert bits(fit_ridge(ds, 0.1)) == bits(fit_ridge(Dataset(X, Y), 0.1))

    def test_routes_that_differ_keep_both_products(self):
        # 55 x 50 is tall, and its 10-fold training blocks (49 or 50 rows) wide
        X, Y = arrays(18, 55, 50)
        ds = Dataset(X, Y)
        fit_ridge(ds, 0.1)
        kfold_cv_ridge(ds, 10, RIDGE_GRID, 0)
        assert set(ds._memo) == {
            "inner_products", "outer_products", "decomposition", "fold_spectra"
        }
        assert [a.shape for a in ds._memo["inner_products"][1]] == [(50, 50), (50,), (55,)]
        assert [a.shape for a in ds._memo["outer_products"][1]] == [(55, 55)]
        for _, products in (ds._memo["inner_products"], ds._memo["outer_products"]):
            assert not any(array.flags.writeable for array in products)


# the four paths cv_tall-like callers take on one split
PATHS = [(0.0, SOFT_RULE), (0.0, HARD_RULE), (1.0, SOFT_RULE), (1.0, HARD_RULE)]


class TestPathMemo:
    """The fold spectra keep the path coefficients of the last phi a path used."""

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from([(60, 10), (30, 60)]),
        st.lists(st.sampled_from(range(len(PATHS))), min_size=1, max_size=8),
    )
    def test_path_sequence_matches_fresh_spectra(self, shape, sequence):
        ds = Dataset(*arrays(sum(shape), *shape))
        shared = _fold_spectra(ds, 5, 1)
        for index in sequence:
            phi, rule = PATHS[index]
            assert bits(_path_cv(shared, phi, rule)) == bits(
                _path_cv(_fold_spectra(ds, 5, 1), phi, rule)
            )

    def test_soft_and_hard_at_one_phi_sweep_once(self, monkeypatch):
        swept = []
        sweep = tuning._prefix_sums

        def spy(fold, mags, phi):
            swept.append(phi)
            return sweep(fold, mags, phi)

        monkeypatch.setattr(tuning, "_prefix_sums", spy)
        ds = Dataset(*arrays(10, 60, 10))
        kfold_cv(ds, 5, 0.0, SOFT_RULE, 3)
        kfold_cv(ds, 5, 0.0, HARD_RULE, 3)
        assert swept == [0.0] * 5
        kfold_cv(ds, 5, 1.0, HARD_RULE, 3)
        kfold_cv(ds, 5, 1.0, SOFT_RULE, 3)
        assert swept == [0.0] * 5 + [1.0] * 5
        # the direct evaluators stay off the path memo
        cv_error_at(ds, 5, 1.0, SOFT_RULE, 3, 0.1)
        grid_cv_oracle(ds, 5, 1.0, HARD_RULE, np.linspace(0.0, 1.0, 11), 3)
        assert len(swept) == 10

    def test_threads_racing_on_one_spectra(self):
        # each thread alternates two phis, so lookups and stores of
        # different phis interleave; every hit must match its phi
        ds = Dataset(*arrays(11, 60, 10))
        shared = _fold_spectra(ds, 5, 2)
        expected = [bits(_path_cv(_fold_spectra(ds, 5, 2), *path)) for path in PATHS]
        seen = []

        def worker(indices):
            for _ in range(20):
                for index in indices:
                    seen.append((index, bits(_path_cv(shared, *PATHS[index]))))

        threads = [
            threading.Thread(target=worker, args=(indices,))
            for indices in ((0, 3), (2, 1), (3, 0), (1, 2))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 40 * len(threads)
        assert all(result == expected[index] for index, result in seen)

    @pytest.mark.parametrize("rule", [SOFT_RULE, HARD_RULE])
    def test_joint_cv_unsorted_grid_after_a_path_at_another_phi(self, rule):
        grid = [1.0, 0.25, 1.0, 0.5]
        # a zero response ties every phi: the smallest one wins
        ds = Dataset(arrays(12, 30, 8)[0], np.zeros(30))
        kfold_cv(ds, 5, 1.0, rule, 0)
        phi, _, result = joint_cv(ds, 5, grid, rule, 0)
        assert (phi, result.cv_error_at_tau) == (0.25, 0.0)
        X, Y = arrays(13, 30, 8)
        shared = Dataset(X, Y)
        kfold_cv(shared, 5, 0.5, rule, 0)
        assert bits(joint_cv(shared, 5, grid, rule, 0)) == bits(
            joint_cv(Dataset(X, Y), 5, grid, rule, 0)
        )
