"""List the executable lines of `src/` that a pytest run never ran.

    python tests/line_coverage.py [PYTEST_ARG ...]    # default: the tier-1 suite

run from the repository root, runs pytest in this process under a
`sys.settrace` line tracer (and `threading.settrace`, for the threads
the tests start), then prints per module its never-run lines grouped by
function, and their total, as `never run: N of M executable lines`.
The exit status is pytest's.

A line is executable when it starts an instruction in the line table of
one of the module's compiled code objects.  It counts to the outermost
code object that lists it, so a `def` line, run when the function is
defined, counts to the code around it, as do the lines of a
comprehension.  Functions are named by `co_qualname`, and by their bare
name under 3.10, which has none.  Not counted:

- docstrings: their lines are left out of both totals;
- child processes: the tracer sees this process only, so a line that
  runs only in a process the tests start (the command line run as
  `python -m fqsim`, a worker of a parallel sweep) counts as never run.

The modules must be first imported under the tracer, as they are when
this runs as a script: lines a module runs on import before the tracer
starts would count as never run.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

from src_lines import docstring_lines, modules

COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def executable_lines(source: str, filename: str = "<module>") -> dict[int, str]:
    """Each executable line of one module's source, docstrings left out,
    mapped to the qualified name of the function it is in, "<module>"
    outside every function."""
    owners = {}

    def walk(code, owner):
        if code.co_name not in COMPREHENSIONS:
            owner = getattr(code, "co_qualname", code.co_name)
        for _, _, line in code.co_lines():
            if line:  # None, or 0 for a module's first instruction
                owners.setdefault(line, owner)
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                walk(const, owner)

    walk(compile(source, filename, "exec"), "<module>")
    for line in docstring_lines(ast.parse(source)):
        owners.pop(line, None)
    return owners


def traced(run, paths) -> tuple[object, set[tuple[str, int]]]:
    """run()'s result, and the (path, line) pairs it ran in the files of
    `paths`, as the real paths of those files."""
    wanted = {os.path.realpath(p) for p in paths}
    known = {}  # a code object's file name -> its real path if wanted, else None
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in known:
            real = os.path.realpath(name)
            known[name] = real if real in wanted else None
        return local if known[name] else None

    previous = sys.gettrace(), threading.gettrace()
    threading.settrace(call)
    sys.settrace(call)
    try:
        result = run()
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    return result, {(known[name], line) for name, line in ran}


def never_run(paths, ran) -> dict[Path, tuple[int, dict[str, list[int]]]]:
    """Per module, its executable line count and its never-run lines by
    function, in line order."""
    report = {}
    for path in paths:
        real = os.path.realpath(path)
        owners = executable_lines(Path(path).read_text(encoding="utf-8"), str(path))
        missed = {}
        for line in sorted(owners):
            if (real, line) not in ran:
                missed.setdefault(owners[line], []).append(line)
        report[path] = (len(owners), missed)
    return report


def main(argv=None) -> int:
    import pytest

    args = sys.argv[1:] if argv is None else argv
    paths = modules(["src"])
    status, ran = traced(lambda: pytest.main(args or ["-q", "--continue-on-collection-errors"]), paths)
    total = missed_total = 0
    for path, (count, missed) in never_run(paths, ran).items():
        n = sum(map(len, missed.values()))
        total, missed_total = total + count, missed_total + n
        print(f"{path}: {n} of {count} never run")
        for owner, lines in missed.items():
            print(f"  {owner}: {', '.join(map(str, lines))}")
    print(f"never run: {missed_total} of {total} executable lines")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
