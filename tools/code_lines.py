"""Print the code lines of each module of src/debruijn/ and their total.

A code line is a source line that holds part of a statement other than
a docstring (a string literal that opens a module, class or function
body): blank lines, comment-only lines and lines that hold nothing but
a docstring do not count, while ``def f(): "doc"`` counts its header.
A line that a multi-line string or bracket continues counts like any
other.

Run from anywhere: ``python3 tools/code_lines.py``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "debruijn"

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """The number of code lines in ``source``.

    A docstring's own tokens are the string tokens within its lines: any
    other token there is the header before it or a statement after it.
    """
    docs = [
        (node.body[0].lineno, node.body[0].end_lineno)
        for node in ast.walk(ast.parse(source))
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        )
        and ast.get_docstring(node, clean=False) is not None
    ]
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or (
            tok.type == tokenize.STRING
            and any(first <= tok.start[0] and tok.end[0] <= end for first, end in docs)
        ):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
