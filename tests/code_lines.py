"""Code lines of each module in src/spreadpol, and their total.

A code line is a physical line that holds at least one token other than a
comment, a docstring or the layout tokens (newlines, indents, the encoding),
so blank lines, comment lines and docstring lines do not count.  Docstrings
are found with ``ast`` (the leading string of a module, class or function
body) and comments and blank lines with ``tokenize``; a token spanning
several lines, such as a multi-line string that is not a docstring, counts
each line it spans.  The script needs only the standard library and only
reports, never fails on a count:

    python tests/code_lines.py

It prints one line per module, its code lines then its physical lines, and
a last line with both totals.  Its name does not match ``test_*.py``, so
pytest does not collect it.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

PACKAGE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "spreadpol")
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_starts(tree: ast.Module) -> set[tuple[int, int]]:
    """(line, column) of the first character of every docstring."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    docs = docstring_starts(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in LAYOUT or (tok.type == tokenize.STRING and tok.start in docs):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> int:
    total_code = total_physical = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            source = fh.read()
        code, physical = code_lines(source), len(source.splitlines())
        total_code += code
        total_physical += physical
        print(f"{name:16} {code:6} {physical:6}")
    print(f"{'total':16} {total_code:6} {total_physical:6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
