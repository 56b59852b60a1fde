"""Run the benchmark and the golden pins under each installed CPython.

    python tests/interpreters.py [PYTHON ...]

run from the repository root.  The interpreters are this one
(`sys.executable`), every `$PYENV_ROOT/versions/*/bin/python3`, or
`bin/python` where a version has no `python3` (PYENV_ROOT defaults to
~/.pyenv), and the paths given as arguments;
nothing else is searched.  One that is below the `requires-python` floor
of pyproject.toml is named and skipped.  Under each of the others it
runs one child process at a time:

- `perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0`,
  whose JSON lines give each workload's `correct` and failed count (a
  seed-1 digest that is not the one in perfbench/reference.json counts
  as one failure);
- where `import pytest, hypothesis` works, `python -m pytest -q -k golden`,
  the golden pins.

pytest and hypothesis are borrowed read-only from this interpreter's
site-packages, put on PYTHONPATH after src/, with bytecode writing off
so that nothing is written there.  It prints one table, then each run it
could not make and why.  The exit status is 1 when a run that was made
failed, else 0.  Stdlib only.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import sysconfig
from pathlib import Path

BENCH = ["perfbench/run.py", "--workload", "all", "--seed", "1", "--seconds", "20", "--trace", "0"]
GOLDEN = ["-m", "pytest", "-q", "-k", "golden"]
VERSION = "import sys; sys.stdout.write('%d.%d.%d' % sys.version_info[:3])"  # Python 2 reads it too


def discover(extra=(), pyenv_root=None) -> list[str]:
    """This interpreter, pyenv's and the extra paths, in that order, each
    real path once; pyenv's sorted by their directory names, each its
    `bin/python3`, or `bin/python` where there is none (as in 2.7)."""
    root = Path(pyenv_root or os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    pyenv = [next(filter(Path.exists, (v / "bin/python3", v / "bin/python")), None)
             for v in sorted(root.glob("versions/*"))]
    found, seen = [], set()
    for path in [sys.executable, *(str(p) for p in pyenv if p), *extra]:
        if (real := os.path.realpath(path)) not in seen:
            seen.add(real)
            found.append(path)
    return found


def requires_python(pyproject: str) -> tuple[int, ...]:
    """The floor of `requires-python = ">=X.Y"` in pyproject.toml's text."""
    return tuple(map(int, re.search(r'requires-python\s*=\s*">=\s*([\d.]+)"', pyproject).group(1).split(".")))


def bench_summary(stdout: str) -> dict:
    """The workloads, attempted and failed operations and correctness
    summed over perfbench's JSON result lines."""
    results = [json.loads(line) for line in stdout.splitlines() if line.startswith('{"correct"')]
    return {"workloads": len(results), "correct": bool(results) and all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results), "failed": sum(r["failed"] for r in results)}


def pytest_summary(stdout: str) -> dict:
    """The counts of pytest's last summary line, such as '104 passed, 1389 deselected'."""
    lines = [line for line in stdout.splitlines() if re.search(r"\d+ (passed|failed|error)", line)]
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (\w+)", lines[-1])} if lines else {}
    return {"passed": counts.get("passed", 0), "failed": counts.get("failed", 0) + counts.get("errors", 0)
            + counts.get("error", 0)}


def _run(args, env, timeout):
    """The finished child process, or why it did not finish."""
    try:
        return subprocess.run(args, capture_output=True, text=True, timeout=timeout, env=env)
    except (OSError, subprocess.SubprocessError) as exc:
        return f"cannot run: {exc}"


def _why(done) -> str:
    return done if isinstance(done, str) else f"exit {done.returncode}: " + (
        done.stderr.strip().splitlines() or ["no output"])[-1]


def check(python: str, floor: tuple[int, ...], env: dict) -> dict:
    """One interpreter's row: its version, and the summaries of the
    benchmark and the golden pins, each None when it was not run and
    named in `not_run` with why."""
    row = {"python": python, "version": None, "bench": None, "golden": None, "not_run": []}
    own = {k: v for k, v in env.items() if k != "PYTHONPATH"}  # nothing borrowed
    done = _run([python, "-c", VERSION], own, 60)
    if isinstance(done, str) or done.returncode:
        row["not_run"].append(("all", _why(done)))
        return row
    row["version"] = done.stdout
    if tuple(map(int, row["version"].split("."))) < floor:
        row["not_run"].append(("all", f"below requires-python >={'.'.join(map(str, floor))}"))
        return row
    done = _run([python, *BENCH], own, 1200)
    bench = None if isinstance(done, str) else bench_summary(done.stdout)
    if bench and bench["workloads"]:
        row["bench"] = bench
    else:
        row["not_run"].append(("benchmark", _why(done)))
    done = _run([python, "-c", "import pytest, hypothesis"], env, 120)
    if isinstance(done, str) or done.returncode:
        row["not_run"].append(("golden pins", "import pytest, hypothesis: " + _why(done)))
        return row
    done = _run([python, *GOLDEN], env, 1200)
    if isinstance(done, str):
        row["not_run"].append(("golden pins", done))
    else:
        row["golden"] = pytest_summary(done.stdout)
    return row


def table(rows) -> str:
    """One line per interpreter, then each run not made and why."""
    lines = [f"{'interpreter':<44} {'version':<8} {'benchmark':<34} golden pins"]
    for row in rows:
        b, g = row["bench"], row["golden"]
        bench = (f"{'correct' if b['correct'] else 'WRONG'}, {b['failed']} of {b['attempted']} failed, "
                 f"{b['workloads']} workloads" if b else "not run")
        golden = f"{g['passed']} passed, {g['failed']} failed" if g else "not run"
        lines.append(f"{row['python']:<44} {row['version'] or '?':<8} {bench:<34} {golden}")
    skipped = [f"  {row['python']} ({row['version'] or '?'}), {what}: {why}"
               for row in rows for what, why in row["not_run"]]
    return "\n".join(lines + (["not run:", *skipped] if skipped else []))


def failed(row) -> bool:
    return bool((row["bench"] and (not row["bench"]["correct"] or row["bench"]["failed"]))
                or (row["golden"] and (row["golden"]["failed"] or not row["golden"]["passed"])))


def main(argv=None) -> int:
    floor = requires_python(Path("pyproject.toml").read_text(encoding="utf-8"))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(["src", sysconfig.get_paths()["purelib"]]))
    rows = []
    for python in discover(sys.argv[1:] if argv is None else argv):
        rows.append(check(python, floor, env))
        print(f"{python}: done", file=sys.stderr, flush=True)
    rows.sort(key=lambda row: tuple(map(int, (row["version"] or "0").split("."))))
    print(table(rows))
    return int(any(map(failed, rows)))


if __name__ == "__main__":
    sys.exit(main())
