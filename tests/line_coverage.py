"""List the executable lines of `src/` that a pytest run never ran, and
the `src/` functions that only code outside `src/` called.

    python tests/line_coverage.py [PYTEST_ARG ...]    # default: the tier-1 suite

run from the repository root, runs pytest in this process under a
`sys.settrace` line tracer (and `threading.settrace`, for the threads
the tests start), then prints per module its never-run lines grouped by
function, and their total, as `never run: N of M executable lines`.
After the total it prints, per module, every function that ran but was
never called from a frame in `src/`, with the files that called it, and
their number, as `called only from outside src/: N functions`: the
public helpers that nothing in the program calls.  A module body, a
comprehension and a generator expression are not listed: import
machinery or their own function runs them.  A frame of generated code
(a file name in angle brackets, such as a dataclass's `__eq__`) or of
a library outside the working directory (`functools`, `argparse`,
`contextlib`) stands for the code that called it.  The exit status is
pytest's.

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


def traced(run, paths) -> tuple[object, set[tuple[str, int]], dict]:
    """run()'s result, the (path, line) pairs it ran in the files of
    `paths`, as the real paths of those files, and the callers of each
    function of those files that ran: its code object mapped to the set
    of calling file names, None for a caller in `paths` and "<none>" for
    no caller.  A caller is the nearest frame of code under the working
    directory; frames of generated code (a file name in angle brackets)
    and of libraries outside it stand for the frame that called them,
    unless no such frame is left, as in a thread's first call, where the
    nearest frame is named."""
    wanted = {os.path.realpath(p) for p in paths}
    ours = os.path.realpath(os.getcwd()) + os.sep
    known = {}  # a code object's file name -> its real path if wanted, else None
    library = {}  # a code object's file name -> whether it is generated or outside `ours`
    ran = set()
    callers = {}

    def owned(name):
        if name not in known:
            real = os.path.realpath(name)
            known[name] = real if real in wanted else None
        return known[name]

    def outside(name):
        if name not in library:
            library[name] = name.startswith("<") or not (
                owned(name) or os.path.realpath(name).startswith(ours))
        return library[name]

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        if not owned(frame.f_code.co_filename):
            return None
        caller = nearest = frame.f_back
        while caller is not None and outside(caller.f_code.co_filename):
            caller = caller.f_back
        caller = caller or nearest
        name = "<none>" if caller is None else caller.f_code.co_filename
        callers.setdefault(frame.f_code, set()).add(None if owned(name) else name)
        return local

    previous = sys.gettrace(), threading.gettrace()
    threading.settrace(call)
    sys.settrace(call)
    try:
        result = run()
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    return result, {(known[name], line) for name, line in ran}, callers


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


def outside_callers(paths, callers) -> dict[Path, dict[str, list[str]]]:
    """Per module, each function that ran but that no frame in `paths`
    called, mapped to its calling files (relative to the working
    directory where they are under it, in name order), functions in line
    order.  A lambda's name carries its line; two lambdas listed on one
    line are listed once, with the callers of both."""
    by_path = {os.path.realpath(p): p for p in paths}
    report = {p: {} for p in paths}
    for code in sorted(callers, key=lambda c: (c.co_filename, c.co_firstlineno)):
        files = callers[code]
        if None in files or code.co_name in COMPREHENSIONS or code.co_name == "<module>":
            continue
        name = getattr(code, "co_qualname", code.co_name)
        if code.co_name == "<lambda>":
            name = f"{name}:{code.co_firstlineno}"
        shown = report[by_path[os.path.realpath(code.co_filename)]].setdefault(name, [])
        shown[:] = sorted(set(shown).union(map(_shown, files)))
    return report


def _shown(path: str) -> str:
    """A file name, relative to the working directory when under it."""
    relative = os.path.relpath(path) if os.path.isabs(path) else path
    return path if relative.startswith("..") else relative


def main(argv=None) -> int:
    import pytest

    args = sys.argv[1:] if argv is None else argv
    paths = modules(["src"])
    status, ran, callers = traced(lambda: pytest.main(args or ["-q", "--continue-on-collection-errors"]), paths)
    total = missed_total = 0
    for path, (count, missed) in never_run(paths, ran).items():
        n = sum(map(len, missed.values()))
        total, missed_total = total + count, missed_total + n
        print(f"{path}: {n} of {count} never run")
        for owner, lines in missed.items():
            print(f"  {owner}: {', '.join(map(str, lines))}")
    print(f"never run: {missed_total} of {total} executable lines")
    listed = 0
    for path, functions in outside_callers(paths, callers).items():
        listed += len(functions)
        for name, files in functions.items():
            print(f"{path}: {name}: {', '.join(files)}")
    print(f"called only from outside src/: {listed} functions")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
