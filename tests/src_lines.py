"""Count the lines of Python modules as code, docstring and other.

The lines spanned by a module, class or function docstring count as
docstring, blank ones inside it too; blank or comment-only lines outside
every docstring count as other; every other line is code.

    python tests/src_lines.py [PATH ...]    # default: src/

prints one line per module, then the total, as
`code / docstring / other (lines)`.
"""

from __future__ import annotations

import ast
import sys
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


def modules(paths) -> list[Path]:
    """The .py files named, or found under the directories named, sorted."""
    found = []
    for path in map(Path, paths):
        found += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return found


def main(argv=None) -> int:
    paths = modules((sys.argv[1:] if argv is None else argv) or ["src"])
    totals = [0, 0, 0]
    for path in paths:
        counts = count_lines(path.read_text(encoding="utf-8"))
        totals = [t + c for t, c in zip(totals, counts)]
        print(f"{path}: {counts[0]} / {counts[1]} / {counts[2]} ({sum(counts)})")
    print(f"total: {totals[0]} / {totals[1]} / {totals[2]} ({sum(totals)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
