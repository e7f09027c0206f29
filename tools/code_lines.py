"""Count the code lines of the Python files in a directory.

A code line is a line that holds a token other than a comment, a
docstring, a line break or an indent: the ``tokenize`` count that ROADMAP
reports for ``src/invkl``.  A docstring is a string literal standing alone
as the first statement of a module, class or function.  A token spanning
several lines, such as a multi-line string, counts each of them.

Run ``python tools/code_lines.py src/invkl``: it prints the count of each
``*.py`` file directly in the directory, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(source):
    """The line numbers covered by the docstrings of ``source``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv):
    if len(argv) != 2:
        print("usage: python tools/code_lines.py DIR", file=sys.stderr)
        return 2
    total = 0
    for path in sorted(Path(argv[1]).glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
