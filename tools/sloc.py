#!/usr/bin/env python3
"""Count code lines: physical lines holding at least one token that is
neither a comment nor part of a docstring.

    python tools/sloc.py src/repro/imapreduce

prints one row per ``.py`` file under each argument (files are taken as
they are) and a total.  Blank lines, comment-only lines and docstring
lines do not count, so the figure moves only when code does.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> int:
    doc = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _SKIP:
            continue
        if tok.type == tokenize.STRING and tok.start[0] in doc:
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code)


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    files: list[Path] = []
    for arg in argv:
        path = Path(arg)
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    rows = [(str(f), count(f.read_text())) for f in files]
    width = max(len(name) for name, _ in rows)
    for name, n in rows:
        print(f"{name:<{width}}  {n:>6}")
    print(f"{'total':<{width}}  {sum(n for _, n in rows):>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
