"""Tests for the repository tools under tools/."""

import importlib.util
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
