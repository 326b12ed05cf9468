"""Tests for the package's public namespace."""

from types import ModuleType

import numpy as np

import ctreg


def test_all_lists_each_public_name_once():
    assert len(ctreg.__all__) == len(set(ctreg.__all__))
    for name in ctreg.__all__:
        assert hasattr(ctreg, name), name
    public = {
        name
        for name, value in vars(ctreg).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public == set(ctreg.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from ctreg import *", namespace)
    assert set(ctreg.__all__) <= set(namespace)


def test_result_objects_compare_and_hash_by_identity():
    # their fields are arrays, which a field-wise == or hash cannot compare
    rng = np.random.default_rng(0)
    X, Y = rng.standard_normal((8, 3)), rng.standard_normal(8)
    spec = ctreg.ScenarioSpec(n=8, d_grid=(3,), eigen_decay_a=1.0,
                              coef_pattern=ctreg.PolyDecay(1.0), snr_target=1.0,
                              replicates=1, base_seed=0, methods=("OLS",))

    def results():
        fit = ctreg.fit_gct(ctreg.Dataset(X, Y), ctreg.GctConfig(tau=0.1))
        model = ctreg.fit_kernel_gct(X, Y, ctreg.KernelSpec("rbf"), ctreg.GctConfig(tau=0.1))
        predictor = ctreg.KernelPredictor(X, model.dual_coeffs, model.kernel, None)
        cv = ctreg.kfold_cv(ctreg.Dataset(X, Y), 4)
        draw = ctreg.generate_scenario(spec, 3, 0)
        return fit, fit.decomposition, cv, model, predictor, draw

    for first, second in zip(results(), results()):
        assert first == first and first != second, type(first).__name__
        assert hash(first) == hash(first) and len({first, second}) == 2
