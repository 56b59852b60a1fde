"""Count the lines of Python modules as code, docstring and other, and
their tokens.

The lines spanned by a module, class or function docstring count as
docstring, blank ones inside it too; blank or comment-only lines outside
every docstring count as other; every other line is code.  The tokens
are all that `tokenize` yields for the module, its encoding, comments
and non-logical newlines included: CPython 3.11's parser grows its token
array by doubling, at 4,096 and 8,192 tokens, so a module past either
costs every process that compiles it more memory.

    python tests/src_lines.py [PATH ...]    # default: src/

prints one line per module, then the total, as
`code / docstring / other (lines) tokens`.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

DOCSTRING_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based numbers of the lines that docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCSTRING_OWNERS) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source: str) -> tuple[int, int, int]:
    """(code, docstring, other) line counts of one module's source."""
    docs = docstring_lines(ast.parse(source))
    code = other = 0
    for number, line in enumerate(source.splitlines(), start=1):
        if number in docs:
            continue
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            other += 1
        else:
            code += 1
    return code, len(docs), other


def count_tokens(source: str) -> int:
    """The number of tokens `tokenize` yields for one module's source."""
    return sum(1 for _ in tokenize.tokenize(io.BytesIO(source.encode("utf-8")).readline))


def modules(paths) -> list[Path]:
    """The .py files named, or found under the directories named, sorted."""
    found = []
    for path in map(Path, paths):
        found += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return found


def main(argv=None) -> int:
    paths = modules((sys.argv[1:] if argv is None else argv) or ["src"])
    totals = [0, 0, 0, 0]
    for path in paths:
        source = path.read_text(encoding="utf-8")
        counts = (*count_lines(source), count_tokens(source))
        totals = [t + c for t, c in zip(totals, counts)]
        print(f"{path}: {counts[0]} / {counts[1]} / {counts[2]} ({sum(counts[:3])}) {counts[3]} tokens")
    print(f"total: {totals[0]} / {totals[1]} / {totals[2]} ({sum(totals[:3])}) {totals[3]} tokens")
    return 0


if __name__ == "__main__":
    sys.exit(main())
