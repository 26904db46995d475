#!/usr/bin/env python3
"""Count the code lines of each sincprod module and the package's public names.

A code line holds at least one token that is not part of a comment or of a
module, class or function docstring; blank lines count for nothing. A string
or bracketed expression spread over several lines counts each line it covers.

Usage: python scripts/code_lines.py
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    docstrings = docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main() -> int:
    total = 0
    for path in sorted((SRC / "sincprod").glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:18s} {count:5d}")
    print(f"{'total':18s} {total:5d}")
    sys.path.insert(0, str(SRC))
    import sincprod

    print(f"sincprod.__all__: {len(sincprod.__all__)} names")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
