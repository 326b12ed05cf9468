"""Print one sha256 per family of ctreg results, to compare two checkouts bit for bit.

Each family hashes the exact bytes of its results on fixed small problems:
a wide design (n < d), a tall one (n > d) and a mixed one (tall, with wide
10-fold training blocks).  Each design is run in two orders on one Dataset,
fits before CV and CV before fits, so a memo that changes a result shows.
The families are the fits, the four tuners (``kfold_cv``, ``joint_cv``,
``kfold_cv_pcr``, ``kfold_cv_ridge``), ``cv_error_at``, ``grid_cv_oracle``,
one ``run_experiment`` results CSV, and the files and output of
``ctreg fit`` and ``ctreg cv``.

It imports ctreg from the ``src`` directory of the checkout it sits in, so
a copy of this file in another checkout hashes that checkout.  Needs numpy;
it takes a few seconds.  Run from anywhere:

    python tools/result_hashes.py

It prints ``<family> <sha256>`` lines.  The same lines from two checkouts,
or at ``OPENBLAS_NUM_THREADS=1`` and ``=2``, mean the same bits.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
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
    PolyDecay,
    ScenarioSpec,
    cv_error_at,
    emit_table,
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
    run_experiment,
)
from ctreg.cli import main as cli_main  # noqa: E402

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


def cli_hashes(hashes: Dict[str, "hashlib._Hash"], tmp: Path) -> None:
    """Run ``ctreg fit`` and ``ctreg cv`` in process and hash what they write."""
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
        data = tmp / f"data{index}.csv"
        header = ",".join([f"x{j}" for j in range(d)] + ["y"])
        rows = [",".join(repr(float(v)) for v in (*x, y)) for x, y in zip(X, Y)]
        data.write_text("\n".join([header, *rows]) + "\n")
        for family, argvs in commands.items():
            for argv in argvs:
                model = tmp / "model.json"
                flag = "--output" if argv[0] == "fit" else "--fit-out"
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = cli_main(
                        argv + ["--input", str(data), "--response", "y", flag, str(model)]
                    )
                if code != 0:
                    raise SystemExit(f"ctreg {' '.join(argv)} exited {code}")
                hashes[family].update(stdout.getvalue().encode())
                hashes[family].update(model.read_bytes())
                model.unlink()


def main() -> int:
    hashes = {name: hashlib.sha256() for name in FAMILIES}
    library_hashes(hashes)
    with tempfile.TemporaryDirectory(prefix="ctreg-hashes-") as tmp:
        experiment_hash(hashes["run_experiment"], Path(tmp))
        cli_hashes(hashes, Path(tmp))
    for name in FAMILIES:
        print(f"{name} {hashes[name].hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
