"""Tests for the package's public namespace."""

import os
import subprocess
import sys
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


COLD_START = """
import sys
import numpy as np
import ctreg
rng = np.random.default_rng(0)
X = rng.standard_normal((30, 8))
ds = ctreg.Dataset(X, X @ rng.standard_normal(8) + rng.standard_normal(30))
spec = ctreg.ScenarioSpec(n=20, d_grid=(6,), eigen_decay_a=1.0,
                          coef_pattern=ctreg.PolyDecay(1.0), snr_target=1.0,
                          replicates=2, base_seed=0,
                          methods=("NCT-CV", "GCT-CV", "PCR-CV", "Ridge-CV"))
calls = {
    "kfold_cv": lambda: ctreg.kfold_cv(ds, 5, 1.0, ctreg.SOFT_RULE),
    "kfold_cv hard": lambda: ctreg.kfold_cv(ds, 5, 0.0, ctreg.HARD_RULE),
    "joint_cv": lambda: ctreg.joint_cv(ds, 5, [0.0, 2.0]),
    "kfold_cv_pcr": lambda: ctreg.kfold_cv_pcr(ds, 5),
    "kfold_cv_ridge": lambda: ctreg.kfold_cv_ridge(ds, 5, np.logspace(-3, 1, 5)),
    "run_experiment": lambda: ctreg.run_experiment(spec),
}
for name, call in calls.items():
    call()
    print(name, "numpy.ma" in sys.modules)
"""


def test_cv_and_studies_leave_numpy_ma_unimported():
    # numpy.ma costs 15-20 ms the first time np.unique or np.median runs
    src = os.path.dirname(os.path.dirname(ctreg.__file__))
    done = subprocess.run(
        [sys.executable, "-c", COLD_START],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    lines = done.stdout.splitlines()
    assert len(lines) == 6
    assert [line for line in lines if line.endswith("True")] == []
