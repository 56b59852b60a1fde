"""The interpreter report's discovery and table, on a temporary pyenv tree
and canned results: no interpreter is started."""

import json
import os
import sys

import interpreters


def test_discovery_lists_this_interpreter_then_pyenv_then_the_arguments(tmp_path):
    for name, binary in [("3.12.1", "python3"), ("2.7.18", "python"), ("3.10.13", "python3"),
                         ("3.10.13", "python")]:
        (tmp_path / "versions" / name / "bin").mkdir(parents=True, exist_ok=True)
        (tmp_path / "versions" / name / "bin" / binary).write_text("")
    (tmp_path / "versions" / "3.9.18" / "bin").mkdir(parents=True)  # no python: not listed
    (tmp_path / "versions" / "notes.txt").write_text("")
    extra = tmp_path / "elsewhere" / "python"
    pythons = interpreters.discover([str(extra), sys.executable], pyenv_root=tmp_path)
    assert pythons == [sys.executable] + [str(tmp_path / "versions" / name / "bin" / binary)
                                         for name, binary in [("2.7.18", "python"), ("3.10.13", "python3"),
                                                              ("3.12.1", "python3")]] + [str(extra)]


def test_discovery_reads_pyenv_root_and_lists_each_real_path_once(tmp_path, monkeypatch):
    (tmp_path / "versions" / "3.13.0" / "bin").mkdir(parents=True)
    python = tmp_path / "versions" / "3.13.0" / "bin" / "python3"
    python.write_text("")
    os.symlink(python, tmp_path / "link")
    monkeypatch.setenv("PYENV_ROOT", str(tmp_path))
    assert interpreters.discover([str(tmp_path / "link")]) == [sys.executable, str(python)]


def test_the_floor_is_read_from_pyproject():
    assert interpreters.requires_python('[project]\nname = "x"\nrequires-python = ">=3.10"\n') == (3, 10)
    with open("pyproject.toml", encoding="utf-8") as fh:
        assert interpreters.requires_python(fh.read()) == (3, 10)


BENCH_OUTPUT = "\n".join(
    ["workload similar_large, seed 1, 20 s, trace 0; cpu x",
     "digest af4a52c4 matches reference.json"]
    + [json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": {}})
       for correct, attempted, failed in [(True, 59, 0), (True, 1000, 0), (False, 900, 1), (True, 7200, 0)]])

PYTEST_OUTPUT = """\
........................................................................ [ 69%]
................................                                         [100%]
============================= slowest 10 durations =============================
0.61s call     tests/test_cli.py::TestKindPins::test_outputs_are_golden[audit]
(8 durations < 0.005s hidden.  Use -vv to show these durations.)
1 failed, 103 passed, 1389 deselected in 9.87s
"""


def test_summaries_of_the_child_outputs():
    assert interpreters.bench_summary(BENCH_OUTPUT) == {
        "workloads": 4, "correct": False, "attempted": 9159, "failed": 1}
    assert interpreters.bench_summary("perfbench: deadline passed\n") == {
        "workloads": 0, "correct": False, "attempted": 0, "failed": 0}
    assert interpreters.pytest_summary(PYTEST_OUTPUT) == {"passed": 103, "failed": 1}
    assert interpreters.pytest_summary("104 passed, 2 errors in 1.0s\n") == {"passed": 104, "failed": 2}


def test_the_table_names_each_run_not_made_and_why():
    good_bench = {"workloads": 4, "correct": True, "attempted": 9159, "failed": 0}
    rows = [
        {"python": "/py/3.11/bin/python3", "version": "3.11.7", "bench": good_bench,
         "golden": {"passed": 104, "failed": 0}, "not_run": []},
        {"python": "/py/3.10/bin/python3", "version": "3.10.13", "bench": good_bench, "golden": None,
         "not_run": [("golden pins", "import pytest, hypothesis: exit 1: ModuleNotFoundError: "
                                     "No module named 'exceptiongroup'")]},
        {"python": "/py/2.7/bin/python3", "version": "2.7.18", "bench": None, "golden": None,
         "not_run": [("all", "below requires-python >=3.10")]},
    ]
    lines = interpreters.table(rows).splitlines()
    assert lines[0].split() == ["interpreter", "version", "benchmark", "golden", "pins"]
    assert lines[1].split() == ["/py/3.11/bin/python3", "3.11.7", "correct,", "0", "of", "9159", "failed,",
                                "4", "workloads", "104", "passed,", "0", "failed"]
    assert lines[2].endswith("not run") and lines[3].split()[-4:] == ["not", "run", "not", "run"]
    assert lines[4:] == [
        "not run:",
        "  /py/3.10/bin/python3 (3.10.13), golden pins: import pytest, hypothesis: exit 1: "
        "ModuleNotFoundError: No module named 'exceptiongroup'",
        "  /py/2.7/bin/python3 (2.7.18), all: below requires-python >=3.10",
    ]
    assert [interpreters.failed(row) for row in rows] == [False, False, False]
    assert interpreters.failed(dict(rows[0], golden={"passed": 103, "failed": 1}))
    assert interpreters.failed(dict(rows[0], bench=dict(good_bench, correct=False)))
