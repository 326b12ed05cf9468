"""The four benchmark workloads and the independent checks run on their ops.

Every workload makes its inputs from the workload seed alone, runs one
closed-loop client (the next op starts when the previous one returns) and
checks each op's outputs against oracles that share no code path with the
library call they check.  See README.md in this directory for why each
workload was chosen and which layer it stresses or bypasses.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
from contextlib import contextmanager
from typing import Dict, List, Sequence

import numpy as np

import ctreg
import ctreg.cli

FOLDS = 10
PREDICT_REPEATS = 20  # predict calls per predict step, for timer resolution
CV_ORACLE_EVERY = 8  # CV oracles run on ops 0 (the warm-up), 8, 16, ...
GRID_POINTS = 200
RTOL = 1e-8


def op_seed(seed: int, index: int) -> int:
    """Seed of the op-level randomness (fold split, study base seed)."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _close(actual, expected, rtol: float = RTOL) -> bool:
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if actual.shape != expected.shape or not np.all(np.isfinite(actual)):
        return False
    scale = max(float(np.max(np.abs(expected), initial=0.0)), 1e-300)
    return float(np.max(np.abs(actual - expected), initial=0.0)) <= rtol * scale


def _decaying_design(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Gaussian rows with column j scaled by 1/j."""
    return rng.standard_normal((n, d)) / np.arange(1, d + 1.0)


def _write_csv(path: str, data: np.ndarray, header: Sequence[str]) -> None:
    # %.17g round-trips every float64 exactly, so the CLI sees our arrays
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header=",".join(header), comments="")


def _read_predictions(path: str) -> np.ndarray:
    with open(path) as handle:
        return np.array([float(line) for line in handle if line.strip()])


class SvdOracle:
    """Soft-thresholded canonical least squares straight from np.linalg.svd.

    Factors X itself, not X / sqrt(n) as ``canonicalize`` does, so it shares
    neither the scaling, the sign convention nor the code of the library.
    """

    def __init__(self, X: np.ndarray, Y: np.ndarray, rank_rel_tol: float = 1e-12):
        n = X.shape[0]
        P, s, Qt = np.linalg.svd(X, full_matrices=False)
        lam = s**2 / n
        keep = lam > rank_rel_tol * lam[0]
        self.lam = lam[keep]
        self.Q = Qt[keep].T
        self.theta = P[:, keep].T @ Y / math.sqrt(n)

    def beta(self, tau: float, phi: float) -> np.ndarray:
        w = self.lam ** (phi / 2.0)
        z = w * self.theta
        shrunk = np.sign(z) * np.maximum(np.abs(z) - tau, 0.0) / w
        return self.Q @ (shrunk / np.sqrt(self.lam))


class Steps:
    """Per-op step timer: ``with steps("cv"): ...`` appends one sample."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {}

    @contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.samples.setdefault(name, []).append(time.perf_counter() - start)


class Workload:
    """Base class: ``make_inputs`` (timed set-up), ``references`` (untimed
    oracle precomputation), ``op`` (the timed unit of user work) and
    ``check`` (untimed; returns failure messages)."""

    name = ""
    # step name -> rows handled per sample, for the rows/s step metrics
    step_rows: Dict[str, int] = {}

    def __init__(self, seed: int, workdir: str, smoke: bool) -> None:
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke

    def make_inputs(self) -> None:
        raise NotImplementedError

    def references(self) -> None:
        pass

    def op(self, index: int, steps: Steps):
        raise NotImplementedError

    def check(self, index: int, out) -> List[str]:
        raise NotImplementedError

    def corrupt(self, out):
        """Return ``out`` with one wrong value, for the checks' self-test."""
        raise NotImplementedError


class _CvWorkload(Workload):
    sizes = smoke_sizes = (0, 0, 0)  # n, d, held-out rows
    noise = 0.1

    def __init__(self, seed: int, workdir: str, smoke: bool) -> None:
        super().__init__(seed, workdir, smoke)
        self.n, self.d, self.n_test = self.smoke_sizes if smoke else self.sizes

    def make_inputs(self) -> None:
        rng = np.random.default_rng([self.seed, 0])
        X = _decaying_design(rng, self.n, self.d)
        beta = 1.0 / np.arange(1, self.d + 1.0)
        Y = X @ beta + self.noise * rng.standard_normal(self.n)
        self.dataset = ctreg.Dataset(X, Y)
        self.X_test = _decaying_design(rng, self.n_test, self.d)
        self.step_rows = {"predict": self.n_test * PREDICT_REPEATS}

    def references(self) -> None:
        self.oracle = SvdOracle(self.dataset.design, self.dataset.response)

    def _refit_and_predict(self, tau: float, phi: float, steps: Steps):
        with steps("refit"):
            fit = ctreg.fit_gct(self.dataset, ctreg.GctConfig(tau=tau, phi=phi))
        with steps("predict"):
            for _ in range(PREDICT_REPEATS):
                y_hat = ctreg.predict(fit, self.X_test)
        return fit, y_hat

    def _check_cv(self, index: int, phi: float, rule, fold_seed: int, result) -> List[str]:
        if index % CV_ORACLE_EVERY:
            return []
        failures = []
        label = f"{rule.kind.value} phi={phi:g}"
        direct = ctreg.cv_error_at(self.dataset, FOLDS, phi, rule, fold_seed, result.tau_cv)
        if abs(direct - result.cv_error_at_tau) > 1e-9 * max(abs(direct), 1e-300):
            failures.append(
                f"{label}: cv_error_at(tau_cv)={direct!r} != cv_error_at_tau="
                f"{result.cv_error_at_tau!r}"
            )
        finite = result.candidate_set[np.isfinite(result.candidate_set)]
        grid = np.linspace(float(finite.min()), float(finite.max()), GRID_POINTS)
        _, grid_err = ctreg.grid_cv_oracle(self.dataset, FOLDS, phi, rule, grid, fold_seed)
        if grid_err < result.cv_error_at_tau * (1.0 - 1e-9):
            failures.append(
                f"{label}: grid oracle {grid_err!r} beats exact path {result.cv_error_at_tau!r}"
            )
        return failures

    def _check_fit(self, tau: float, phi: float, fit, y_hat) -> List[str]:
        failures = []
        beta = self.oracle.beta(tau, phi)
        if not _close(fit.beta, beta):
            failures.append(f"refit beta differs from SVD oracle at tau={tau!r}")
        if not _close(y_hat, self.X_test @ beta):
            failures.append("predictions differ from X_test @ oracle beta")
        return failures


class CvTall(_CvWorkload):
    """n >> d: fold SVDs are cheap, the exact-path sweep dominates."""

    name = "cv_tall"
    sizes, smoke_sizes = (1000, 200, 1000), (60, 12, 60)

    def op(self, index: int, steps: Steps):
        fold_seed = op_seed(self.seed, index)
        with steps("cv"):
            soft = ctreg.kfold_cv(self.dataset, FOLDS, 0.0, ctreg.SOFT_RULE, fold_seed)
        with steps("cv"):
            hard = ctreg.kfold_cv(self.dataset, FOLDS, 0.0, ctreg.HARD_RULE, fold_seed)
        fit, y_hat = self._refit_and_predict(soft.tau_cv, 0.0, steps)
        return {"fold_seed": fold_seed, "soft": soft, "hard": hard, "fit": fit, "y_hat": y_hat}

    def check(self, index: int, out) -> List[str]:
        failures = self._check_cv(index, 0.0, ctreg.SOFT_RULE, out["fold_seed"], out["soft"])
        failures += self._check_cv(index, 0.0, ctreg.HARD_RULE, out["fold_seed"], out["hard"])
        return failures + self._check_fit(out["soft"].tau_cv, 0.0, out["fit"], out["y_hat"])

    def corrupt(self, out):
        return dict(out, soft=dataclasses.replace(out["soft"], tau_cv=out["soft"].tau_cv * 1.1))


class CvWide(_CvWorkload):
    """d >> n: the fold SVDs dominate, and joint_cv repeats them per phi."""

    name = "cv_wide"
    sizes, smoke_sizes = (200, 4000, 200), (30, 120, 30)
    phi_grid = (0.0, 1.0)

    def op(self, index: int, steps: Steps):
        fold_seed = op_seed(self.seed, index)
        with steps("cv"):
            phi, tau, result = ctreg.joint_cv(
                self.dataset, FOLDS, self.phi_grid, ctreg.SOFT_RULE, fold_seed
            )
        fit, y_hat = self._refit_and_predict(tau, phi, steps)
        return {"fold_seed": fold_seed, "phi": phi, "result": result, "fit": fit, "y_hat": y_hat}

    def check(self, index: int, out) -> List[str]:
        result = out["result"]
        failures = self._check_cv(index, out["phi"], ctreg.SOFT_RULE, out["fold_seed"], result)
        return failures + self._check_fit(result.tau_cv, out["phi"], out["fit"], out["y_hat"])

    def corrupt(self, out):
        result = out["result"]
        return dict(out, result=dataclasses.replace(result, tau_cv=result.tau_cv * 1.1))


class SimStudy(Workload):
    """The paper's Monte Carlo (criterion-5 shape), all six methods."""

    name = "simstudy"

    def make_inputs(self) -> None:
        # the library draws each replicate itself, from the op's base seed
        self.n, self.d_grid = (40, (10, 20)) if self.smoke else (200, (50, 100, 400))

    def spec(self, index: int):
        return ctreg.ScenarioSpec(
            n=self.n,
            d_grid=self.d_grid,
            eigen_decay_a=2.0,
            coef_pattern=ctreg.PolyDecay(b=2.0),
            snr_target=10.0,
            replicates=1,
            base_seed=op_seed(self.seed, index),
            methods=ctreg.simstudy.KNOWN_METHODS,
            gct_phi=1.0,
        )

    def op(self, index: int, steps: Steps):
        spec = self.spec(index)
        return {"spec": spec, "table": ctreg.run_experiment(spec)}

    def check(self, index: int, out) -> List[str]:
        spec, rows = out["spec"], out["table"].rows
        failures = []
        if len(rows) != len(spec.methods) * len(spec.d_grid):
            failures.append(f"table has {len(rows)} rows")
        for row in rows:
            values = (row.median_rel_mse, row.median_rel_pe)
            if not all(math.isfinite(v) for v in values):
                failures.append(f"{row.method} d={row.d}: non-finite {values}")
            elif row.method.endswith("-CV") and max(values) >= 1.0:
                failures.append(f"{row.method} d={row.d}: relative error {values} >= 1")
            elif row.method == "Zero" and values != (1.0, 1.0):
                # the trivial estimator is the denominator of both ratios
                failures.append(f"Zero d={row.d}: relative error {values} != 1")
        return failures

    def corrupt(self, out):
        table = out["table"]
        rows = (dataclasses.replace(table.rows[0], median_rel_mse=math.nan),) + table.rows[1:]
        return dict(out, table=dataclasses.replace(table, rows=rows))


class KernelCli(Workload):
    """The kernel layer and the CLI's CSV/JSON path, through ctreg.cli.main."""

    name = "kernel_cli"
    gamma = 0.05
    tau = 0.01

    def __init__(self, seed: int, workdir: str, smoke: bool) -> None:
        super().__init__(seed, workdir, smoke)
        self.n_kernel, self.p_kernel = (80, 5) if smoke else (2000, 20)
        self.n_lin_train, self.n_lin_new, self.p_lin = (120, 300, 10) if smoke else (1000, 10000, 100)
        self.paths = {
            key: os.path.join(workdir, f"{self.name}_{key}")
            for key in (
                "rbf_train.csv",
                "rbf_new.csv",
                "lin_train.csv",
                "lin_new.csv",
                "lin_model.json",
                "rbf_model.json",
                "rbf_pred.txt",
                "lin_pred.txt",
            )
        }
        self.step_rows = {"cli_predict": self.n_lin_new}

    def _rbf_target(self, X: np.ndarray, centers: np.ndarray, coefs: np.ndarray) -> np.ndarray:
        sq = np.sum((X[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        return np.exp(-self.gamma * sq) @ coefs

    def make_inputs(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        centers = rng.standard_normal((10, self.p_kernel))
        coefs = rng.standard_normal(10)
        self.X_rbf = rng.standard_normal((self.n_kernel, self.p_kernel))
        self.Y_rbf = self._rbf_target(self.X_rbf, centers, coefs) + 0.1 * rng.standard_normal(
            self.n_kernel
        )
        self.X_rbf_new = rng.standard_normal((self.n_kernel, self.p_kernel))
        self.X_lin = _decaying_design(rng, self.n_lin_train, self.p_lin) + 1.0
        self.Y_lin = self.X_lin @ (1.0 / np.arange(1, self.p_lin + 1.0)) + 2.0
        self.Y_lin += 0.1 * rng.standard_normal(self.n_lin_train)
        self.X_lin_new = _decaying_design(rng, self.n_lin_new, self.p_lin) + 1.0

        x_names = [f"x{j}" for j in range(self.p_kernel)]
        _write_csv(
            self.paths["rbf_train.csv"],
            np.column_stack([self.X_rbf, self.Y_rbf]),
            x_names + ["y"],
        )
        _write_csv(self.paths["rbf_new.csv"], self.X_rbf_new, x_names)
        x_names = [f"x{j}" for j in range(self.p_lin)]
        _write_csv(
            self.paths["lin_train.csv"],
            np.column_stack([self.X_lin, self.Y_lin]),
            x_names + ["y"],
        )
        _write_csv(self.paths["lin_new.csv"], self.X_lin_new, x_names)
        self.fit_code = ctreg.cli.main(
            [
                "fit",
                "--input", self.paths["lin_train.csv"],
                "--response", "y",
                "--method", "nct",
                "--tau", repr(self.tau),
                "--output", self.paths["lin_model.json"],
            ]
        )

    def references(self) -> None:
        model = ctreg.fit_kernel_gct(
            self.X_rbf,
            self.Y_rbf,
            ctreg.KernelSpec(kind="rbf", gamma=self.gamma),
            ctreg.GctConfig(tau=self.tau),
            center_response=True,
        )
        self.rbf_expected = ctreg.predict_kernel_batch(model, self.X_rbf_new)
        # the CLI centers by default: the intercept comes from the means
        x_means, y_mean = self.X_lin.mean(axis=0), self.Y_lin.mean()
        oracle = SvdOracle(self.X_lin - x_means, self.Y_lin - y_mean)
        beta = oracle.beta(self.tau, 0.0)
        self.lin_expected = y_mean + (self.X_lin_new - x_means) @ beta

    def op(self, index: int, steps: Steps):
        p = self.paths
        codes = {"fit": self.fit_code}
        with steps("kernel_fit"):
            codes["kernel-fit"] = ctreg.cli.main(
                [
                    "kernel-fit",
                    "--input", p["rbf_train.csv"],
                    "--response", "y",
                    "--kernel", f"rbf:{self.gamma!r}",
                    "--tau", repr(self.tau),
                    "--output", p["rbf_model.json"],
                ]
            )
        with steps("kernel_predict"):
            codes["predict kernel"] = ctreg.cli.main(
                ["predict", "--model", p["rbf_model.json"], "--input", p["rbf_new.csv"],
                 "--output", p["rbf_pred.txt"]]
            )
        with steps("cli_predict"):
            codes["predict linear"] = ctreg.cli.main(
                ["predict", "--model", p["lin_model.json"], "--input", p["lin_new.csv"],
                 "--output", p["lin_pred.txt"]]
            )
        out = {"codes": codes}
        if all(code == 0 for code in codes.values()):
            out["rbf"] = _read_predictions(p["rbf_pred.txt"])
            out["lin"] = _read_predictions(p["lin_pred.txt"])
            for key in ("rbf_pred.txt", "lin_pred.txt"):
                os.unlink(p[key])
        return out

    def check(self, index: int, out) -> List[str]:
        bad = {step: code for step, code in out["codes"].items() if code != 0}
        if bad:
            return [f"non-zero exit codes {bad}"]
        failures = []
        if not _close(out["rbf"], self.rbf_expected, 1e-9):
            failures.append("CLI kernel predictions differ from predict_kernel_batch")
        if not _close(out["lin"], self.lin_expected):
            failures.append("CLI linear predictions differ from X @ beta + centering")
        return failures

    def corrupt(self, out):
        lin = out["lin"].copy()
        lin[0] += 1.0
        return dict(out, lin=lin)


WORKLOADS = {cls.name: cls for cls in (CvTall, CvWide, SimStudy, KernelCli)}
