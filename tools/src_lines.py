"""Count raw and code lines per module of ``src/ctreg``.

Code lines leave out blank lines, comment-only lines and the lines of
module, class and function docstrings.  A line counts as code when a
token other than a comment or a line break starts, ends or spans it; the
docstrings are found with ``ast``.  Standard library only.

Run from anywhere: ``python tools/src_lines.py [package-dir]``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Set, Tuple

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> Set[int]:
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, (first.end_lineno or first.lineno) + 1))
    return lines


def count(source: str) -> Tuple[int, int]:
    """(raw lines, code lines) of one module's source."""
    code: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    code -= _docstring_lines(ast.parse(source))
    return len(source.splitlines()), len(code)


def main(argv: list) -> int:
    default = Path(__file__).resolve().parent.parent / "src" / "ctreg"
    root = Path(argv[1]) if len(argv) > 1 else default
    total_raw = total_code = 0
    print(f"{'module':<20}{'raw':>8}{'code':>8}")
    for path in sorted(root.glob("*.py")):
        raw, code = count(path.read_text())
        total_raw, total_code = total_raw + raw, total_code + code
        print(f"{path.name:<20}{raw:>8}{code:>8}")
    print(f"{'total':<20}{total_raw:>8}{total_code:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
