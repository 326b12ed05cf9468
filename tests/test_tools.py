"""Tests for the repository tools under tools/."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring
over two lines."""

# a comment-only line
import math  # a trailing comment keeps the line


class A:
    """Class docstring."""

    x = """a string that is
not a docstring"""

    def f(self):
        """Function
        docstring."""
        return (
            1

            + math.pi
        )
'''


def test_src_lines_counts():
    # code lines: import, class, the two lines of x, def, and the four
    # non-blank lines of the return statement
    assert load("src_lines").count(SOURCE) == (21, 9)


def test_every_mutant_matches_its_file_once():
    # a mutant whose old text is gone or ambiguous is reported stale, never
    # killed; this keeps the list in step with the code without running it
    mutants = load("mutants")
    assert len({mutant.name for mutant in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for mutant in mutants.MUTANTS:
        source = (mutants.ROOT / mutant.path).read_text()
        assert source.count(mutant.old) == 1, mutant.name
        assert mutant.new != mutant.old, mutant.name
        for test in mutant.tests:
            assert (mutants.ROOT / test.split("::")[0]).exists(), (mutant.name, test)


def test_result_hashes_prints_one_sha256_per_family():
    done = subprocess.run(
        [sys.executable, str(TOOLS / "result_hashes.py")],
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    lines = done.stdout.splitlines()
    assert [line.split(" ")[0] for line in lines] == [
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
    ]
    for line in lines:
        assert re.fullmatch(r"[a-z_]+ [0-9a-f]{64}", line), line
    assert done.stderr == ""
