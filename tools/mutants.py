"""Run the committed mutation checks: each mutant must be killed by the tests.

A mutant is one exact text replacement in one file under ``src/`` (the old
text must occur exactly once) plus the tests expected to kill it.  For each
mutant the script copies ``src/``, ``tests/`` and ``pyproject.toml`` (for
its warning filters) to a temporary directory, applies the replacement and
runs one ``python -m pytest -x -q`` on the listed tests, with a timeout.
A failing run kills the mutant, a passing one lets it survive, and a
mutant whose old text is missing or occurs more than once is stale.
First the listed tests run once on the unmutated copy, which must pass.

Standard library only.  Run from anywhere:

    python tools/mutants.py [--timeout SECONDS] [NAME ...]

It prints one line per mutant and the killed, survived and stale counts,
and exits 1 if any mutant survived or went stale (2 if the unmutated tests
fail).  A change that adds a numerical shortcut adds its mutants here.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: Tuple[str, ...]  # pytest arguments, relative to the repository root


MUTANTS = (
    Mutant(
        "fold scores divided by s instead of lambda",
        "src/ctreg/tuning.py",
        "scores = outer[np.ix_(val, train)] @ V / (root_n * eig)",
        "scores = outer[np.ix_(val, train)] @ V / (root_n * np.sqrt(eig))",
        ("tests/test_tuning.py",),
    ),
    Mutant(
        "unstable eigenvalue sort (a reversed ascending sort flips ties)",
        "src/ctreg/canonical.py",
        'return np.argsort(-eig, kind="stable")[:r]',
        "return np.argsort(eig)[::-1][:r]",
        ("tests/test_canonical.py",),
    ),
    Mutant(
        "fold theta without 1/s",
        "src/ctreg/tuning.py",
        "theta = U.T @ b / (n_t * s)",
        "theta = U.T @ b / n_t",
        ("tests/test_tuning.py",),
    ),
    # the tall folds' downdated Gram matrix and the per-phi path memo
    Mutant(
        "downdate guard inverted",
        "src/ctreg/tuning.py",
        "if row_norms[val].sum() <= row_norms[train].sum():",
        "if row_norms[val].sum() > row_norms[train].sum():",
        ("tests/test_tuning.py::TestTallDowndate",),
    ),
    Mutant(
        "b not downdated",
        "src/ctreg/tuning.py",
        "b = cross - X_v.T @ Y[val]",
        "b = cross",
        ("tests/test_tuning.py",),
    ),
    Mutant(
        "path memo ignores phi",
        "src/ctreg/tuning.py",
        '_memoized(spectra._memo, "path_sums", phi, make)',
        '_memoized(spectra._memo, "path_sums", None, make)',
        ("tests/test_memo.py",),
    ),
    Mutant(
        "rank floor on s instead of the eigenvalues",
        "src/ctreg/canonical.py",
        "r = int(np.count_nonzero(eig > rank_rel_tol * eig[-1]))",
        "r = int(np.count_nonzero(np.sqrt(eig) > rank_rel_tol * np.sqrt(eig[-1])))",
        ("tests/test_canonical.py", "tests/test_tuning.py", "tests/test_kernel.py"),
    ),
    Mutant(
        "no fold id in the zero-block error",
        "src/ctreg/tuning.py",
        'f"fold {fold_id}: zero design matrix in its training block"',
        'f"zero design matrix in a training block"',
        ("tests/test_tuning.py",),
    ),
    Mutant(
        "no sign convention",
        "src/ctreg/canonical.py",
        "    signs = np.where(-bottom > top, -1.0, 1.0)\n",
        "    signs = np.ones_like(top)\n",
        ("tests/test_canonical.py", "tests/test_kernel.py"),
    ),
    Mutant(
        "sign tie goes to the later entry",
        "src/ctreg/canonical.py",
        "signs[j] = np.sign(column[np.argmax(np.abs(column) == top[j])])",
        "signs[j] = np.sign(column[::-1][np.argmax(np.abs(column[::-1]) == top[j])])",
        ("tests/test_canonical.py::TestPivotSigns",),
    ),
    Mutant(
        "pivot on the largest signed entry (ignore min)",
        "src/ctreg/canonical.py",
        "    signs = np.where(-bottom > top, -1.0, 1.0)\n",
        "    signs = np.where(top < 0, -1.0, 1.0)\n",
        ("tests/test_canonical.py::TestPivotSigns",),
    ),
    Mutant(
        "seed dropped from the fold-spectra memo key",
        "src/ctreg/tuning.py",
        'key = (_integer("L", L, 2), _integer("seed", seed, 0))',
        'key = (_integer("L", L, 2),)',
        ("tests/test_memo.py",),
    ),
    # the Dataset memo's one products entry per route
    Mutant(
        "one products memo shared by every Dataset",
        "src/ctreg/canonical.py",
        "return _memoized(dataset._memo, name, None, make)",
        "return _memoized(_products.__dict__, name, None, make)",
        (
            "tests/test_memo.py::TestProducts::"
            "test_same_shape_datasets_in_turn_give_fresh_bits",
        ),
    ),
    Mutant(
        "canonicalize forms its own Gram instead of reading the memo",
        "src/ctreg/canonical.py",
        "_products(dataset, wide)[0] / n",
        "(X @ X.T if wide else X.T @ X) / n",
        (
            "tests/test_memo.py::TestProducts::"
            "test_canonicalize_and_the_folds_read_one_entry",
        ),
    ),
    # the argument contract (errors.py) and its check-before-the-folds order
    Mutant(
        "_integer accepts an integral float",
        "src/ctreg/errors.py",
        "        integer = operator.index(value)\n",
        "        integer = (\n"
        "            int(value) if isinstance(value, float) and value.is_integer()\n"
        "            else operator.index(value)\n"
        "        )\n",
        (
            "tests/test_contract.py::TestArgumentContract::"
            "test_each_probed_case_is_rejected",
        ),
    ),
    Mutant(
        "_real lets NaN through",
        "src/ctreg/errors.py",
        '        and (low < value or (ends[0] == "[" and low == value))\n'
        '        and (value < high or (ends[1] == "]" and value == high))\n',
        '        and not (value < low or (ends[0] == "(" and value == low))\n'
        '        and not (value > high or (ends[1] == ")" and value == high))\n',
        (
            "tests/test_contract.py::TestArgumentContract::"
            "test_each_probed_case_is_rejected",
        ),
    ),
    Mutant(
        "array helper skips the shape comparison",
        "src/ctreg/errors.py",
        "    if shape is not None:\n",
        "    if False:\n",
        ("tests/test_contract.py",),
    ),
    Mutant(
        "array helper skips the finite check",
        "src/ctreg/errors.py",
        "    if scan and not np.all(np.isfinite(array)):\n",
        "    if False:\n",
        ("tests/test_contract.py",),
    ),
    Mutant(
        "joint_cv checks phi after the folds",
        "src/ctreg/tuning.py",
        '    phis = _grid("phi_grid", phi_grid, 0, math.inf, "[)")\n'
        "    _check_path_rule(rule)\n"
        "    spectra = _memo_fold_spectra(dataset, L, seed)\n",
        "    _check_path_rule(rule)\n"
        "    spectra = _memo_fold_spectra(dataset, L, seed)\n"
        '    phis = _grid("phi_grid", phi_grid, 0, math.inf, "[)")\n',
        (
            "tests/test_contract.py::TestArgumentContract::"
            "test_each_probed_case_is_rejected",
        ),
    ),
    Mutant(
        "positional center_response",
        "src/ctreg/kernel.py",
        "    *,\n    center_response: bool = False,",
        "    center_response: bool = False,",
        ("tests/test_kernel.py",),
    ),
    Mutant(
        "x_means dropped from the linear predict",
        "src/ctreg/cli.py",
        "preds = (data if x_means is None else data - x_means) @ beta",
        "preds = data @ beta",
        ("tests/test_cli.py",),
    ),
    Mutant(
        'comments="#" in read_csv',
        "src/ctreg/cli.py",
        "comments=None,",
        'comments="#",',
        ("tests/test_cli.py",),
    ),
    Mutant(
        "ctreg predict reads the CSV before the model",
        "src/ctreg/cli.py",
        "    columns, predict_rows = _load_model(args.model)\n    _, data = read_csv(args.input)\n",
        "    _, data = read_csv(args.input)\n    columns, predict_rows = _load_model(args.model)\n",
        ("tests/test_cli.py::TestPredict",),
    ),
    Mutant(
        "--method skips its field checks",
        "src/ctreg/cli.py",
        '_named("--method", args.method, methods, _method)',
        '_named("--method", args.method, methods, lambda name, **values: (name, values))',
        ("tests/test_cli.py::TestFit",),
    ),
    Mutant(
        "_from_fields keeps a key that is not a field",
        "src/ctreg/files.py",
        'raise ValueError(f"{cls.__name__} has no field {key!r}")',
        "pass",
        ("tests/test_simstudy.py::TestSerialization",),
    ),
    # the file layer names a missing key by its whole path, and the model
    # reader refuses a key that its layout does not declare
    Mutant(
        "key-path prefix dropped",
        "src/ctreg/files.py",
        "raise KeyError(path + field.name)",
        "raise KeyError(field.name)",
        ("tests/test_cli.py::TestPredict",),
    ),
    Mutant(
        "model reader keeps an undeclared key",
        "src/ctreg/cli.py",
        "return files._from_fields(layout, fields, {}).predictor()",
        "return files._from_fields(\n"
        "            layout, {k: v for k, v in fields.items() if k in layout.__dataclass_fields__}, {}\n"
        "        ).predictor()",
        ("tests/test_cli.py::TestPredict",),
    ),
    Mutant(
        "deprecated np.row_stack for the path segments",
        "src/ctreg/tuning.py",
        "segments = np.column_stack((lo, hi, taus, errors))",
        "segments = np.row_stack((lo, hi, taus, errors)).T",
        ("tests/test_tuning.py",),
    ),
    Mutant(
        "two poly fields swapped in the kernel table",
        "src/ctreg/kernel.py",
        '("coef0", float), ("scale", float)',
        '("scale", float), ("coef0", float)',
        ("tests/test_cli.py",),
    ),
    Mutant(
        "poly degree typed as float in the kernel table",
        "src/ctreg/kernel.py",
        '("degree", int)',
        '("degree", float)',
        ("tests/test_cli.py",),
    ),
    # a model file's kernel fields are checked by KernelPredictor and KernelSpec
    Mutant(
        "KernelPredictor skips the dual_coeffs shape",
        "src/ctreg/kernel.py",
        '_array("KernelPredictor.dual_coeffs", self.dual_coeffs, (n,))',
        '_array("KernelPredictor.dual_coeffs", self.dual_coeffs)',
        ("tests/test_contract.py", "tests/test_cli.py::TestPredict"),
    ),
    Mutant(
        "KernelPredictor keeps a non-finite response_mean",
        "src/ctreg/kernel.py",
        "        if self.response_mean is not None:\n",
        "        if isinstance(self.response_mean, str):\n",
        ("tests/test_contract.py", "tests/test_cli.py::TestPredict"),
    ),
    Mutant(
        "KernelSpec checks degree for poly only",
        "src/ctreg/kernel.py",
        '        object.__setattr__(self, "degree", _integer("KernelSpec.degree", self.degree, 1))\n',
        '        if self.kind == "poly":\n'
        '            object.__setattr__(self, "degree", _integer("KernelSpec.degree", self.degree, 1))\n',
        ("tests/test_contract.py", "tests/test_cli.py::TestPredict"),
    ),
    Mutant(
        "the atomic writer's OSError mapping dropped",
        "src/ctreg/files.py",
        "    except OSError as exc:\n        raise _unwritable(path, exc) from exc\n"
        "    finally:\n",
        "    finally:\n",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "the OpenBLAS thread count not restored after a fold map",
        "src/ctreg/_blas.py",
        "            if _pins == 0:\n                _restore(control)\n",
        "",
        (
            "tests/test_tuning.py::TestFoldMap",
            "tests/test_memo.py::TestMemoizedTuners::test_threads_racing_on_one_dataset",
        ),
    ),
    Mutant(
        "pin leaves the pool running",
        "src/ctreg/_blas.py",
        "        control.set(1)\n        pool.shutdown()\n",
        "        control.set(1)\n",
        ("tests/test_tuning.py::TestPinStopsThePool",),
    ),
    Mutant(
        "pool stopped while another Python thread is alive",
        "src/ctreg/_blas.py",
        "if pool is None or threading.active_count() > 1:",
        "if pool is None:",
        (
            "tests/test_tuning.py::TestPinStopsThePool::"
            "test_pool_left_running_beside_another_python_thread",
        ),
    ),
    Mutant(
        "at-fork reset dropped: a forked child keeps its parent's pin state",
        "src/ctreg/_blas.py",
        "os.register_at_fork(after_in_child=_after_fork_in_child)\n",
        "pass\n",
        ("tests/test_tuning.py::TestFoldMap",),
    ),
    Mutant(
        "canonicalize not pinned",
        "src/ctreg/canonical.py",
        "    with pinned():\n        gram = _products(dataset, wide)[0] / n\n",
        "    if True:\n        gram = _products(dataset, wide)[0] / n\n",
        (
            "tests/test_canonical.py::TestPinnedDecomposition::"
            "test_fits_do_not_depend_on_the_blas_thread_count",
        ),
    ),
    # the documented tie rules: path, PCR, ridge, joint phi and grid oracle
    Mutant(
        "path tie to the first tau",
        "src/ctreg/tuning.py",
        "return int(np.flatnonzero(errors <= np.min(errors) + tol)[-1])",
        "return int(np.flatnonzero(errors <= np.min(errors) + tol)[0])",
        ("tests/test_tuning.py",),
    ),
    Mutant(
        "TIE_RTOL set to 0",
        "src/ctreg/tuning.py",
        "TIE_RTOL = 1e-14",
        "TIE_RTOL = 0.0",
        ("tests/test_tuning.py",),
    ),
    Mutant(
        "TIE_RTOL set to 1e-12",
        "src/ctreg/tuning.py",
        "TIE_RTOL = 1e-14",
        "TIE_RTOL = 1e-12",
        ("tests/test_tuning.py",),
    ),
    Mutant(
        "hard boundary searched with side=right",
        "src/ctreg/tuning.py",
        'np.searchsorted(mags, candidates, side="left")',
        'np.searchsorted(mags, candidates, side="right")',
        ("tests/test_tuning.py",),
    ),
    Mutant(
        "kernel PSD check dropped",
        "src/ctreg/kernel.py",
        "if self.order.size == 0 or eig[0] < -KERNEL_RANK_REL_TOL * eig[-1]:",
        "if self.order.size == 0:",
        ("tests/test_kernel.py",),
    ),
    Mutant(
        "soft segment minimum ties to lo",
        "src/ctreg/tuning.py",
        "lower = at_lo < err",
        "lower = at_lo <= err",
        ("tests/test_tuning.py",),
    ),
    Mutant(
        "PCR tie to the larger model",
        "src/ctreg/tuning.py",
        "best_m = int(np.argmin(errors))",
        "best_m = len(errors) - 1 - int(np.argmin(errors[::-1]))",
        ("tests/test_tuning.py::TestExactTies",),
    ),
    Mutant(
        "ridge tie to the smaller penalty",
        "src/ctreg/tuning.py",
        "best = _last_tied_minimum(errors, 0.0)",
        "best = int(np.argmin(errors))",
        ("tests/test_tuning.py::TestExactTies",),
    ),
    Mutant(
        "joint_cv tie to the larger phi",
        "src/ctreg/tuning.py",
        "result.cv_error_at_tau < best[2].cv_error_at_tau",
        "result.cv_error_at_tau <= best[2].cv_error_at_tau",
        ("tests/test_tuning.py::TestExactTies",),
    ),
    Mutant(
        "grid_cv_oracle tie to the smallest tau",
        "src/ctreg/tuning.py",
        "if err <= best_err:",
        "if err < best_err:",
        ("tests/test_tuning.py::TestExactTies",),
    ),
    # the one eigensolver and the blocked kernel matrices
    Mutant(
        "dsytrd reads the upper triangle",
        "src/ctreg/_blas.py",
        'solver.sytrd(\n        _LAPACK_COL_MAJOR, b"L"',
        'solver.sytrd(\n        _LAPACK_COL_MAJOR, b"U"',
        (
            "tests/test_canonical.py::TestEighInPlace",
            "tests/test_kernel.py::TestKernelCanonicalize",
        ),
    ),
    # the packed reflectors, Z written over the matrix, and dstedc's workspace
    Mutant(
        "reflectors packed from the upper triangle",
        "src/ctreg/_blas.py",
        'solver.trttp(\n        _LAPACK_COL_MAJOR, b"L"',
        'solver.trttp(\n        _LAPACK_COL_MAJOR, b"U"',
        ("tests/test_canonical.py::TestEighInPlace",),
    ),
    Mutant(
        "reflectors unpacked into the upper triangle",
        "src/ctreg/_blas.py",
        'self.solver.tpttr(\n            _LAPACK_COL_MAJOR, b"L"',
        'self.solver.tpttr(\n            _LAPACK_COL_MAJOR, b"U"',
        ("tests/test_canonical.py::TestEighInPlace",),
    ),
    Mutant(
        "Z written to a fresh buffer",
        "src/ctreg/_blas.py",
        "    z = lower  #",
        '    z = np.empty((n, n), order="F")  #',
        ("tests/test_kernel.py::TestResidentPeak::test_fit_kernel_gct",),
    ),
    Mutant(
        "model keeps the unpacked reflectors",
        "src/ctreg/kernel.py",
        "        self._factors: Optional[EighFactors] = factors\n",
        "        self._factors: Optional[EighFactors] = factors\n"
        "        self.reflectors = factors._unpacked()\n",
        ("tests/test_kernel.py::TestResidentPeak::test_predict_while_the_model_is_alive",),
    ),
    Mutant(
        "iwork with 32-bit entries on the 64_ binding",
        "src/ctreg/_blas.py",
        "iwork = np.empty(3 + 5 * n, dtype=solver.lapack_int)",
        "iwork = np.empty(3 + 5 * n, dtype=np.int32)",
        ("tests/test_canonical.py::TestEighInPlace::test_unwritten_memory_is_never_read",),
    ),
    Mutant(
        "vectors formed with LAPACKE's queried workspace",
        "src/ctreg/_blas.py",
        'self._ormtr(self.vectors, b"N", n * n + 4 * n + 1)',
        'self._ormtr(self.vectors, b"N")',
        ("tests/test_canonical.py::TestEighInPlace",),
    ),
    Mutant(
        "range scaling skipped",
        "src/ctreg/_blas.py",
        "scale = _range_scale(lower) if n > 1 else None",
        "scale = None",
        ("tests/test_canonical.py::TestEighInPlace",),
    ),
    Mutant(
        "kernel_canonicalize decomposes K without its copy",
        "src/ctreg/kernel.py",
        'K = np.array(_array("K", K, ("n", "n")), order="F")',
        'K = _array("K", K, ("n", "n"))',
        ("tests/test_kernel.py::TestKernelCanonicalize",),
    ),
    Mutant(
        "block symmetrization skips the mirror write",
        "src/ctreg/kernel.py",
        "            if j > i:\n                K[cols, rows] = upper.T\n",
        "",
        ("tests/test_kernel.py::TestGram",),
    ),
    # every read of V through _Basis: on the factors, then on the lazily formed vectors
    Mutant(
        "Q^T skipped: theta from Z^T Y",
        "src/ctreg/kernel.py",
        "factors.apply(np.array(f), transpose=True)",
        "np.array(f)",
        ("tests/test_kernel.py::TestFitMatchesScaledRoute",),
    ),
    Mutant(
        "dormtr applies Q where Q^T is asked for",
        "src/ctreg/_blas.py",
        'b"T" if transpose else b"N"',
        'b"N" if transpose else b"T"',
        ("tests/test_kernel.py::TestFitMatchesScaledRoute",),
    ),
    Mutant(
        "pivot signs skipped on the lazily formed vectors",
        "src/ctreg/kernel.py",
        "                signs = _pivot_signs(vec)\n",
        "                signs = np.ones(vec.shape[1])\n",
        ("tests/test_kernel.py::TestFactoredFit",),
    ),
    Mutant(
        "custom rule shrunk in the unsigned basis",
        "src/ctreg/kernel.py",
        "signs = basis.formed()[1] if",
        "signs = basis.formed()[1] ** 2 if",
        ("tests/test_kernel.py::TestFitMatchesScaledRoute",),
    ),
    Mutant(
        "lazy vectors formed without the lock",
        "src/ctreg/kernel.py",
        '"""(V, s), formed on the first call."""\n        with self._lock:\n',
        '"""(V, s), formed on the first call."""\n        if True:\n',
        (
            "tests/test_kernel.py::TestFactoredFit::"
            "test_signed_vectors_are_formed_once_on_first_read",
        ),
    ),
    Mutant(
        "formed-mode project drops the signs",
        "src/ctreg/kernel.py",
        "return signs * (vec.T @ f)",
        "return vec.T @ f",
        (
            "tests/test_kernel.py::TestFactoredFit::"
            "test_in_sample_reads_agree_with_the_formed_vectors",
        ),
    ),
    Mutant(
        "expand scatters without order",
        "src/ctreg/kernel.py",
        "full[self.order] = c",
        "full[: c.size] = c",
        ("tests/test_kernel.py::TestFitMatchesScaledRoute",),
    ),
    Mutant(
        "in_sample_fit expands the signed theta_hat",
        "src/ctreg/kernel.py",
        "model._basis.expand(model._theta)\n",
        "model._basis.expand(model.theta_hat)\n",
        (
            "tests/test_kernel.py::TestFactoredFit::"
            "test_in_sample_reads_of_an_unread_model_form_nothing",
        ),
    ),
    Mutant(
        "kernel effective dimension without Q^T",
        "src/ctreg/kernel.py",
        "factors.apply(np.array(f), transpose=True)",
        "np.array(f)",
        ("tests/test_kernel.py::TestKernelEffectiveDimension",),
    ),
    Mutant(
        "fold map results in completion order",
        "src/ctreg/_blas.py",
        "                results[index] = func(index)\n",
        "                results[results.index(None)] = func(index)\n",
        ("tests/test_tuning.py::TestFoldMap",),
    ),
)


def _copy_tree(workdir: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(
            ROOT / name,
            workdir / name,
            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"),
        )
    shutil.copy2(ROOT / "pyproject.toml", workdir / "pyproject.toml")


def _pytest(workdir: Path, tests: Tuple[str, ...], timeout: float) -> str:
    """"passed", "failed" or "timeout" for one pytest run in workdir."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    try:
        done = subprocess.run(
            command + list(tests),
            cwd=workdir,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if done.returncode == 0 else "failed"


def run(mutants: Tuple[Mutant, ...], timeout: float) -> int:
    with tempfile.TemporaryDirectory(prefix="ctreg-mutants-") as tmp:
        workdir = Path(tmp)
        _copy_tree(workdir)
        selected = tuple(sorted({test for mutant in mutants for test in mutant.tests}))
        if _pytest(workdir, selected, timeout * 2) != "passed":
            print("the unmutated tests do not pass; no mutant was run")
            return 2
        counts = {"killed": 0, "survived": 0, "stale": 0}
        for mutant in mutants:
            target = workdir / mutant.path
            source = target.read_text()
            matches = source.count(mutant.old)
            if matches != 1:
                outcome = "stale"
                detail = f"old text found {matches} times"
            else:
                target.write_text(source.replace(mutant.old, mutant.new))
                try:
                    result = _pytest(workdir, mutant.tests, timeout)
                finally:
                    target.write_text(source)
                outcome = "survived" if result == "passed" else "killed"
                detail = result if result == "timeout" else ""
            counts[outcome] += 1
            print(f"{outcome:<9} {mutant.name}" + (f" ({detail})" if detail else ""))
    print(", ".join(f"{count} {outcome}" for outcome, count in counts.items()))
    return 0 if counts["survived"] == counts["stale"] == 0 else 1


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="run only the mutants with these names")
    parser.add_argument("--timeout", type=float, default=300.0, help="seconds per run")
    args = parser.parse_args(argv)
    mutants = tuple(m for m in MUTANTS if not args.names or m.name in args.names)
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutant names: {sorted(unknown)}")
    return run(mutants, args.timeout)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
