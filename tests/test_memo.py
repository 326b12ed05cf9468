"""Tests for the Dataset memo: one decomposition and one fold split per dataset."""

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
)

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
        assert set(ds._memo) == {"fold_spectra"}
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
