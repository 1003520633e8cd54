#!/usr/bin/env python3
"""Code lines per module of ``src/adaptive_sgp``, and their total.

Usage, from anywhere:

    python3 tools/loc.py [SRC_DIR]

A code line is a physical line that holds at least one token of code:
blank lines, comment lines and the lines of docstrings (the string that
opens a module, class or function body) do not count.  A statement that
spans several lines counts each of them, as does a string that is not a
docstring.  SRC_DIR defaults to this checkout's ``src/adaptive_sgp``, so
the tool also counts another tree's package, e.g. a parent commit's.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Code lines of one module's ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list) -> int:
    src = (Path(argv[1]) if len(argv) > 1 else
           Path(__file__).resolve().parent.parent / "src" / "adaptive_sgp")
    total = 0
    for path in sorted(src.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{path.name:<16} {n:>5}")
    print(f"{'total':<16} {total:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
