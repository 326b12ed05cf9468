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
        "scores = gram[np.ix_(val, train)] @ V / (root_n * eig)",
        "scores = gram[np.ix_(val, train)] @ V / (root_n * np.sqrt(eig))",
        ("tests/test_tuning.py",),
    ),
    Mutant(
        "unstable eigenvalue sort (a reversed ascending sort flips ties)",
        "src/ctreg/canonical.py",
        'order = np.argsort(-eig, kind="stable")[:r]',
        "order = np.argsort(eig)[::-1][:r]",
        ("tests/test_canonical.py",),
    ),
    Mutant(
        "fold theta without 1/s",
        "src/ctreg/tuning.py",
        "theta = U.T @ (X_t.T @ Y[train]) / (n_t * s)",
        "theta = U.T @ (X_t.T @ Y[train]) / n_t",
        ("tests/test_tuning.py",),
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
        "    signs[signs == 0] = 1.0\n    return signs\n",
        "    signs[signs == 0] = 1.0\n    return np.ones_like(signs)\n",
        ("tests/test_canonical.py", "tests/test_kernel.py"),
    ),
    Mutant(
        "seed dropped from the fold-spectra memo key",
        "src/ctreg/tuning.py",
        "key = (L, seed)",
        "key = (L,)",
        ("tests/test_memo.py",),
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
        "            data = data - x_means\n",
        "            data = data\n",
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
        "            if _pins == 0:\n                control.set(_saved)\n",
        "",
        (
            "tests/test_tuning.py::TestFoldMap",
            "tests/test_memo.py::TestMemoizedTuners::test_threads_racing_on_one_dataset",
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
