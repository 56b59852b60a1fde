"""The never-run line counter and the list of functions called only from
outside, on a small module whose lines and callers are known."""

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


def called_from_outside():
    return 4


import contextlib
import dataclasses


@dataclasses.dataclass
class Record:
    n: int

    def __post_init__(self):
        self.n += 1


@contextlib.contextmanager
def scope():
    yield Record(1)


with scope() as record:
    assert record.n == 2


pair = (lambda: 1, lambda: 2)
pair[0]()
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
    52: "<module>", 53: "called_from_outside", 56: "<module>", 57: "<module>", 60: "<module>",
    61: "<module>", 62: "Record", 64: "Record", 65: "Record.__post_init__", 68: "<module>",
    69: "<module>", 70: "scope", 73: "<module>", 74: "<module>", 77: "<module>", 78: "<module>",
}


def named(owner):
    """A function's name as the counter gives it: bare under 3.10, which
    has no `co_qualname`."""
    return owner if sys.version_info >= (3, 11) else owner.rpartition(".")[2]


def test_executable_lines_leave_out_docstrings_and_name_the_function():
    assert line_coverage.executable_lines(FIXTURE) == {line: named(o) for line, o in OWNERS.items()}


def run_fixture(path):
    """Run the fixture module, then call one of its functions from here."""
    namespace = runpy.run_path(str(path))
    assert namespace["called_from_outside"]() == 4 and namespace["pair"][1]() == 2
    return namespace


def test_never_run_lines_are_the_skipped_branch_and_the_uncalled_functions(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE, encoding="utf-8")
    before = sys.gettrace(), threading.gettrace()
    namespace, ran, callers = line_coverage.traced(lambda: run_fixture(path), [path])
    assert (sys.gettrace(), threading.gettrace()) == before
    assert namespace["decorated"](1) == (1, 2)
    (count, missed), = line_coverage.never_run([path], ran).values()
    assert count == len(OWNERS)
    assert missed == {"used": [13], "unused": [26, 27], named("Thing.other"): [37]}
    # the module body, its comprehension and the functions it calls are
    # called from the module, `__post_init__` through the dataclass's
    # generated `__init__` and `scope` through contextlib; this file and
    # the thread's run, past which no caller is left, call the rest, the
    # second lambda of line 77 among them
    (outside,) = line_coverage.outside_callers([path], callers).values()
    here = [line_coverage._shown(__file__)]
    assert outside == {"in_a_thread": [line_coverage._shown(threading.__file__)],
                       "called_from_outside": here, "<lambda>:77": here}
    assert list(outside) == ["in_a_thread", "called_from_outside", "<lambda>:77"]
