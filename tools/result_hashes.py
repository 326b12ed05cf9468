"""Print one sha256 per family of ctreg results, to compare two checkouts bit for bit.

Each family hashes the exact bytes of its results on fixed small problems:
a wide design (n < d), a tall one (n > d) and a mixed one (tall, with wide
10-fold training blocks).  Each design is run in two orders on one Dataset,
fits before CV and CV before fits, so a memo that changes a result shows.
The families are the fits, the four tuners (``kfold_cv``, ``joint_cv``,
``kfold_cv_pcr``, ``kfold_cv_ridge``), ``cv_error_at``, ``grid_cv_oracle``,
one ``run_experiment`` results CSV, the files and output of ``ctreg fit``
and ``ctreg cv``, the output of ``ctreg predict`` on each of their model
files (centered and ``--no-center``), the output of ``ctreg diagnose``
with ``--beta`` and ``--sigma``, and the results CSV of ``ctreg simulate``
on a scenario JSON file.  The kernel families are ``gram`` and
``_cross_gram`` for each kernel kind, ``kernel_canonicalize`` (of Gram
matrices and of matrices symmetric only within its tolerance),
``fit_kernel_gct``, ``predict_kernel_batch``, the model file of
``ctreg kernel-fit`` and the predictions of ``ctreg predict`` on it, at
sizes below and above the kernel module's block of rows.

It imports ctreg from the ``src`` directory of the checkout it sits in, so
a copy of this file in another checkout hashes that checkout.  Needs numpy;
it takes a few seconds.  Run from anywhere:

    python tools/result_hashes.py

It prints ``<family> <sha256>`` lines.  The same lines from two checkouts
mean the same bits.  The families before the kernel ones do not depend on
the BLAS thread count, so their lines at ``OPENBLAS_NUM_THREADS=1`` and
``=2`` match too (CI compares every line before ``gram``); a kernel
decomposition runs on OpenBLAS's own threads, so compare the kernel
families of two checkouts at one thread count.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from ctreg import (  # noqa: E402
    HARD_RULE,
    SOFT_RULE,
    Dataset,
    GctConfig,
    KernelSpec,
    PolyDecay,
    ScenarioSpec,
    cv_error_at,
    emit_table,
    fit_gct,
    fit_kernel_gct,
    fit_min_norm_ls,
    fit_nct,
    fit_pcr,
    fit_ridge,
    gram,
    grid_cv_oracle,
    joint_cv,
    kernel_canonicalize,
    kfold_cv,
    kfold_cv_pcr,
    kfold_cv_ridge,
    predict_kernel_batch,
    run_experiment,
)
from ctreg.cli import main as cli_main  # noqa: E402
from ctreg.kernel import _cross_gram  # noqa: E402

# wide, tall, and tall with wide 10-fold training blocks
SHAPES = ((40, 90), (90, 12), (55, 50))
L = 10
SEEDS = (0, 1)
RULES = (SOFT_RULE, HARD_RULE)
PHI_GRID = (0.0, 0.5, 1.0)
RIDGE_GRID = np.logspace(-4, 1, 9)
TAU_GRID = np.linspace(0.0, 2.0, 21)
FAMILIES = (
    "fits",
    "kfold_cv",
    "joint_cv",
    "kfold_cv_pcr",
    "kfold_cv_ridge",
    "cv_error_at",
    "grid_cv_oracle",
    "run_experiment",
    "cli_fit",
    "cli_cv",
    "cli_predict",
    "cli_diagnose",
    "cli_simulate",
    "gram",
    "cross_gram",
    "kernel_canonicalize",
    "fit_kernel_gct",
    "predict_kernel_batch",
    "cli_kernel_fit",
    "cli_kernel_predict",
)
# kernel problems: (points, new points), below and above 256 rows, 3 features
KERNEL_SIZES = ((40, 25), (300, 420))
KERNEL_SPECS = (
    KernelSpec("linear"),
    KernelSpec("rbf", gamma=0.5),
    KernelSpec("poly", degree=3, coef0=1.0, scale=0.3),
)

# what a KernelModel gives, in the order of its fields when it held them
# all, so that the same bits give the same hash; left_vectors and theta_hat
# are formed on first read
MODEL_VALUES = (
    "training_points",
    "dual_coeffs",
    "kernel",
    "response_mean",
    "theta_hat",
    "eigenvalues",
    "left_vectors",
    "config",
)


def feed(h: "hashlib._Hash", value: Any) -> None:
    """Add the exact bytes of a result to a hash."""
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (tuple, list)):
        for item in value:
            feed(h, item)
    elif isinstance(value, float):
        h.update(value.hex().encode())
    elif dataclasses.is_dataclass(value):
        feed(h, [getattr(value, f.name) for f in dataclasses.fields(value)])
    else:
        h.update(repr(value).encode())


def problem(n: int, d: int) -> tuple:
    rng = np.random.default_rng(n * d)
    X = rng.standard_normal((n, d)) / np.arange(1, d + 1.0) ** 0.5
    return X, X @ rng.standard_normal(d) + 0.3 * rng.standard_normal(n)


def fits(ds: Dataset) -> List[Any]:
    return [
        (fit.beta, fit.theta_hat)
        for fit in (
            fit_nct(ds, 0.05),
            fit_gct(ds, GctConfig(tau=0.05, phi=1.0)),
            fit_gct(ds, GctConfig(tau=0.05, phi=1.0, rule=HARD_RULE)),
            fit_pcr(ds, 3),
            fit_ridge(ds, 0.1),
            fit_min_norm_ls(ds),
        )
    ]


def cv(ds: Dataset) -> Dict[str, List[Any]]:
    out: Dict[str, List[Any]] = {name: [] for name in FAMILIES[1:7]}
    for seed in SEEDS:
        for rule in RULES:
            for phi in (0.0, 1.0):
                out["kfold_cv"].append(kfold_cv(ds, L, phi, rule, seed))
                out["cv_error_at"].append(cv_error_at(ds, L, phi, rule, seed, 0.1))
                out["grid_cv_oracle"].append(
                    grid_cv_oracle(ds, L, phi, rule, TAU_GRID, seed)
                )
            out["joint_cv"].append(joint_cv(ds, L, PHI_GRID, rule, seed))
        out["kfold_cv_pcr"].append(kfold_cv_pcr(ds, L, seed))
        out["kfold_cv_ridge"].append(kfold_cv_ridge(ds, L, RIDGE_GRID, seed))
    return out


def library_hashes(hashes: Dict[str, "hashlib._Hash"]) -> None:
    for n, d in SHAPES:
        X, Y = problem(n, d)
        for fit_first in (True, False):
            ds = Dataset(X, Y)
            steps: List[Callable[[], None]] = [
                lambda: feed(hashes["fits"], fits(ds)),
                lambda: [feed(hashes[k], v) for k, v in cv(ds).items()],
            ]
            for step in steps if fit_first else steps[::-1]:
                step()


def experiment_hash(h: "hashlib._Hash", tmp: Path) -> None:
    spec = ScenarioSpec(
        n=30,
        d_grid=(10, 45),
        eigen_decay_a=1.0,
        coef_pattern=PolyDecay(1.0),
        snr_target=5.0,
        replicates=2,
        base_seed=3,
        methods=("NCT-CV", "GCT-CV", "PCR-CV", "OLS", "Ridge-CV", "Zero"),
    )
    emit_table(run_experiment(spec), str(tmp / "table.csv"))
    h.update((tmp / "table.csv").read_bytes())


def write_csv(path: Path, table: np.ndarray, with_y: bool) -> Path:
    """A CSV with columns x0, x1, ... (and y last, if ``with_y``)."""
    names = [f"x{j}" for j in range(table.shape[1] - with_y)] + ["y"] * with_y
    rows = [",".join(repr(float(v)) for v in row) for row in table]
    path.write_text("\n".join([",".join(names), *rows]) + "\n")
    return path


def run_cli(argv: List[str]) -> str:
    """What ``ctreg argv`` prints, run in process; a nonzero exit stops the run."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"ctreg {' '.join(argv)} exited {code}")
    return stdout.getvalue()


def cli_hashes(hashes: Dict[str, "hashlib._Hash"], tmp: Path) -> None:
    """Run ``ctreg fit``, ``cv`` and ``diagnose`` in process and hash what
    they write, and what ``ctreg predict`` prints on each model file."""
    commands = {
        "cli_fit": [
            ["fit", "--method", "nct", "--tau", "0.05"],
            ["fit", "--method", "gct", "--tau", "0.05", "--phi", "1", "--rule", "hard"],
            ["fit", "--method", "pcr:3", "--no-center"],
        ],
        "cli_cv": [
            ["cv", "--folds", "10", "--phi-grid", "0,0.5,1"],
            ["cv", "--folds", "5", "--rule", "hard", "--seed", "2", "--no-center"],
        ],
    }
    for index, (n, d) in enumerate(SHAPES):
        X, Y = problem(n, d)
        data = write_csv(tmp / f"data{index}.csv", np.column_stack([X, Y]), with_y=True)
        rng = np.random.default_rng(index)
        rows = write_csv(tmp / f"rows{index}.csv", rng.standard_normal((7, d)), with_y=False)
        beta = write_csv(tmp / f"beta{index}.csv", rng.standard_normal((d, 1)), with_y=False)
        inputs = ["--input", str(data), "--response", "y"]
        for family, argvs in commands.items():
            for argv in argvs:
                model = tmp / "model.json"
                flag = "--output" if argv[0] == "fit" else "--fit-out"
                hashes[family].update(run_cli(argv + inputs + [flag, str(model)]).encode())
                hashes[family].update(model.read_bytes())
                predictions = run_cli(["predict", "--model", str(model), "--input", str(rows)])
                hashes["cli_predict"].update(predictions.encode())
                model.unlink()
        report = run_cli(["diagnose", *inputs, "--beta", str(beta), "--sigma", "0.3"])
        hashes["cli_diagnose"].update(report.encode())


def cli_simulate_hash(h: "hashlib._Hash", tmp: Path) -> None:
    """Hash the results CSV of ``ctreg simulate`` on a scenario file whose
    float fields are written both as integers and as floats, and which
    leaves gct_phi to its default."""
    scenario = {
        "n": 30,
        "d_grid": [10, 45],
        "eigen_decay_a": 1,
        "coef_pattern": {"kind": "spiked-head", "count": 3, "value": 2},
        "snr_target": 4.5,
        "replicates": 2,
        "base_seed": 5,
        "methods": ["GCT-CV", "NCT-CV", "Ridge-CV", "Zero"],
    }
    path, table = tmp / "scenario.json", tmp / "simulate.csv"
    path.write_text(json.dumps(scenario))
    run_cli(["simulate", "--scenario", str(path), "--output", str(table)])
    h.update(table.read_bytes())


def kernel_problem(n: int, m: int) -> tuple:
    rng = np.random.default_rng(7 * n + m)
    X = rng.standard_normal((n, 3))
    return X, np.sin(X[:, 0]) + 0.1 * rng.standard_normal(n), rng.standard_normal((m, 3))


def kernel_hashes(hashes: Dict[str, "hashlib._Hash"]) -> None:
    for n, m in KERNEL_SIZES:
        X, Y, new = kernel_problem(n, m)
        # symmetric within kernel_canonicalize's tolerance, not exactly
        wobble = 1e-13 * np.random.default_rng(n).standard_normal((n, n))
        for spec in KERNEL_SPECS:
            K = gram(X, spec)
            feed(hashes["gram"], K)
            feed(hashes["cross_gram"], [_cross_gram(spec, new, X), _cross_gram(spec, X, new)])
            feed(hashes["kernel_canonicalize"], [kernel_canonicalize(K + np.eye(n))])
            feed(hashes["kernel_canonicalize"], [kernel_canonicalize(K + np.eye(n) + wobble)])
            for config in (GctConfig(tau=0.05), GctConfig(tau=0.05, phi=1.0, rule=HARD_RULE)):
                model = fit_kernel_gct(X, Y, spec, config, center_response=True)
                feed(hashes["fit_kernel_gct"], [getattr(model, name) for name in MODEL_VALUES])
                feed(hashes["predict_kernel_batch"], predict_kernel_batch(model, new))


def cli_kernel_hashes(hashes: Dict[str, "hashlib._Hash"], tmp: Path) -> None:
    """Run ``ctreg kernel-fit`` and ``ctreg predict`` on its model in process."""
    model, preds = tmp / "kernel_model.json", tmp / "preds.txt"
    for index, (n, m) in enumerate(KERNEL_SIZES):
        X, Y, new = kernel_problem(n, m)
        data = write_csv(tmp / f"kernel{index}.csv", np.column_stack([X, Y]), with_y=True)
        rows = write_csv(tmp / f"kernel_new{index}.csv", new, with_y=False)
        for kernel in ("linear", "rbf:0.5", "poly:3,1,0.3"):
            for argv in (
                ["kernel-fit", "--input", str(data), "--response", "y", "--kernel", kernel,
                 "--tau", "0.05", "--output", str(model)],
                ["predict", "--model", str(model), "--input", str(rows), "--output", str(preds)],
            ):
                run_cli(argv)
            hashes["cli_kernel_fit"].update(model.read_bytes())
            hashes["cli_kernel_predict"].update(preds.read_bytes())


def main() -> int:
    hashes = {name: hashlib.sha256() for name in FAMILIES}
    library_hashes(hashes)
    kernel_hashes(hashes)
    with tempfile.TemporaryDirectory(prefix="ctreg-hashes-") as tmp:
        experiment_hash(hashes["run_experiment"], Path(tmp))
        cli_hashes(hashes, Path(tmp))
        cli_simulate_hash(hashes["cli_simulate"], Path(tmp))
        cli_kernel_hashes(hashes, Path(tmp))
    for name in FAMILIES:
        print(f"{name} {hashes[name].hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
