#!/usr/bin/env python3
"""Print the size of the library's source: the raw line count of
`src/**/*.py`, then the count without blank lines, comment lines and
docstrings.

Usage: python3 scripts/src_size.py

A comment line is one whose first non-blank character is '#'; a docstring
is the string that opens a module, class or function body, every line of it.
"""
from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def docstring_lines(tree):
    """The line numbers that docstrings span in a parsed module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def sizes(root=SRC):
    """(raw lines, lines without blanks, comments and docstrings)."""
    raw = code = 0
    for path in sorted(root.rglob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        docs = docstring_lines(ast.parse(text))
        raw += len(lines)
        code += sum(1 for no, line in enumerate(lines, 1)
                    if line.strip() and not line.lstrip().startswith("#") and no not in docs)
    return raw, code


if __name__ == "__main__":
    print(*sizes())
