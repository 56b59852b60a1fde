"""The never-run line counter, on a small module whose lines are known."""

import runpy
import sys
import threading

import line_coverage

FIXTURE = '''\
"""Module docstring,
over two lines."""

import functools
import threading


def used(n):
    """Docstring."""
    total = 0
    for i in range(n):
        if i > 100:
            total -= 1
        total += i
    return [x * 2 for x in range(total)
            if x]


@functools.lru_cache(maxsize=None)
def decorated(x):
    return (x,
            x + 1)


def unused():
    a = 1
    return a


class Thing:
    """Class docstring."""

    def method(self):
        return 1

    def other(self):
        return 2


def in_a_thread():
    return 3


used(3)
decorated(1)
Thing().method()
worker = threading.Thread(target=in_a_thread)
worker.start()
worker.join()
'''

# Every line holding code, docstrings left out, by the outermost code
# object that lists it: a `def` line and a decorator count to the code
# around them, the comprehension on lines 15-16 to `used`.
OWNERS = {
    4: "<module>", 5: "<module>", 8: "<module>", 10: "used", 11: "used", 12: "used", 13: "used",
    14: "used", 15: "used", 16: "used", 19: "<module>", 20: "<module>", 21: "decorated",
    22: "decorated", 25: "<module>", 26: "unused", 27: "unused", 30: "<module>", 33: "Thing",
    34: "Thing.method", 36: "Thing", 37: "Thing.other", 40: "<module>", 41: "in_a_thread",
    44: "<module>", 45: "<module>", 46: "<module>", 47: "<module>", 48: "<module>", 49: "<module>",
}


def named(owner):
    """A function's name as the counter gives it: bare under 3.10, which
    has no `co_qualname`."""
    return owner if sys.version_info >= (3, 11) else owner.rpartition(".")[2]


def test_executable_lines_leave_out_docstrings_and_name_the_function():
    assert line_coverage.executable_lines(FIXTURE) == {line: named(o) for line, o in OWNERS.items()}


def test_never_run_lines_are_the_skipped_branch_and_the_uncalled_functions(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE, encoding="utf-8")
    before = sys.gettrace(), threading.gettrace()
    namespace, ran = line_coverage.traced(lambda: runpy.run_path(str(path)), [path])
    assert (sys.gettrace(), threading.gettrace()) == before
    assert namespace["decorated"](1) == (1, 2)
    (count, missed), = line_coverage.never_run([path], ran).values()
    assert count == len(OWNERS)
    assert missed == {"used": [13], "unused": [26, 27], named("Thing.other"): [37]}
